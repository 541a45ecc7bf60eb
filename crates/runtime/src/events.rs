//! Optional JSONL event trace of a runtime session.
//!
//! Each event is one JSON object on its own line — `submit`, `issue`, and
//! `complete` records carrying the job id, bank, and modeled times — so a
//! session can be replayed or inspected with standard line-oriented
//! tooling.

use serde::Serialize;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) enum Event {
    /// A job entered the queue.
    Submit {
        /// Job id.
        job: u64,
    },
    /// A submission was served from the compiled-program cache (the pass
    /// pipeline was skipped).
    CacheHit {
        /// Job id.
        job: u64,
    },
    /// The scheduler spliced two or more same-unit jobs into one batched
    /// program and issued it under a single sequence number.
    Batch {
        /// Issue sequence number shared by the whole batch.
        seq: u64,
        /// Resolved bank.
        bank: usize,
        /// Member job ids, in splice order.
        jobs: Vec<u64>,
    },
    /// The scheduler issued a job to a worker.
    Issue {
        /// Job id.
        job: u64,
        /// Issue sequence number.
        seq: u64,
        /// Resolved bank.
        bank: usize,
        /// Worker shard the job went to.
        shard: usize,
    },
    /// A job's attempt was accounted: its modeled times. Written as the
    /// live replay passes it, so these interleave with `Issue` records.
    Complete {
        /// Job id.
        job: u64,
        /// Resolved bank.
        bank: usize,
        /// Memory cycles waited before starting.
        wait: u64,
        /// Modeled completion time (memory cycles).
        done: u64,
    },
    /// A still-queued job was dropped by [`Runtime::cancel`](crate::Runtime::cancel);
    /// it never reached a bank and reports no outcome.
    Cancelled {
        /// Job id.
        job: u64,
    },
    /// A still-queued job was found past its deadline at issue time and
    /// dropped as expired; it never reached a bank and reports no
    /// outcome.
    Expired {
        /// Job id.
        job: u64,
    },
    /// A protected job attempt detected at least one fault.
    FaultDetected {
        /// Job id.
        job: u64,
        /// Bank the faulty attempt ran on.
        bank: usize,
        /// Dispatch attempt (0 = first placement).
        attempt: u32,
        /// Faults the protection detected in this attempt.
        faults: u64,
    },
    /// An unverified job was re-dispatched to a different bank.
    Redispatch {
        /// Job id.
        job: u64,
        /// Bank the unverified attempt ran on.
        from_bank: usize,
        /// Bank the job was re-routed to.
        to_bank: usize,
        /// The new dispatch attempt number.
        attempt: u32,
    },
    /// A bank crossed the suspect threshold.
    BankSuspect {
        /// Bank index.
        bank: usize,
        /// Leaky-bucket score at the transition.
        score: u32,
    },
    /// A bank was quarantined (sticky for the rest of the session).
    BankQuarantined {
        /// Bank index.
        bank: usize,
        /// Leaky-bucket score at the transition.
        score: u32,
    },
    /// A dependency-gated job's predecessors all retired; the job was
    /// handed to placement.
    Released {
        /// Job id.
        job: u64,
    },
    /// A resident weight pin materialized on a bank.
    ResidentPinned {
        /// Residency id.
        res: u64,
        /// The pin job that loads the weights.
        job: u64,
        /// Bank hosting the resident rows.
        bank: usize,
    },
    /// Quarantine moved a residency: a re-materialization job re-loads
    /// the pinned weights on a healthy bank before any dependent job
    /// re-places there.
    Rematerialized {
        /// Residency id.
        res: u64,
        /// The re-materialization job's id.
        job: u64,
        /// The quarantined bank the weights left.
        from_bank: usize,
        /// The healthy bank now hosting them.
        to_bank: usize,
    },
    /// A position-code scrub pass over a bank completed.
    Scrub {
        /// Bank index.
        bank: usize,
        /// Wires commanded back to canonical alignment.
        realigned: u64,
        /// Wires whose position code repaired a misalignment.
        repaired: u64,
    },
    /// A worker shard went down (panic caught or in-flight attempt
    /// declared hung); its queued work is re-dispatched.
    ShardDown {
        /// Worker shard index.
        shard: usize,
        /// `true` when the watchdog took the shard down, `false` for a
        /// caught panic.
        hung: bool,
    },
    /// A replacement worker took over a down shard.
    ShardRestart {
        /// Worker shard index.
        shard: usize,
        /// Restarts of this shard so far (1 = first restart).
        restarts: u32,
    },
    /// An in-flight attempt exceeded its watchdog budget.
    AttemptHung {
        /// Job id.
        job: u64,
        /// Bank the attempt was running on.
        bank: usize,
        /// Dispatch attempt (0 = first placement).
        attempt: u32,
        /// The budget that was exceeded, in microseconds.
        budget_us: u64,
    },
    /// An idle parallel-scheduling domain stole queued submissions from
    /// a sibling domain's injector.
    Steal {
        /// Domain the submissions were taken from.
        from: usize,
        /// Domain that took (and will place) them.
        to: usize,
        /// Job ids moved, in queue order.
        jobs: Vec<u64>,
    },
    /// A program fingerprint crossed the poison-quarantine threshold;
    /// further submissions of it are refused at admission.
    PoisonQuarantine {
        /// Structural, placement-normalized program hash.
        fingerprint: u64,
        /// Hung attempts attributed to the fingerprint.
        strikes: u32,
    },
}

/// A thread-safe JSONL sink.
#[derive(Debug)]
pub(crate) struct EventTrace {
    out: Mutex<BufWriter<File>>,
}

impl EventTrace {
    /// Creates (truncates) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub(crate) fn create(path: &Path) -> std::io::Result<EventTrace> {
        Ok(EventTrace {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Appends one event as a JSON line. I/O errors are swallowed — the
    /// trace is diagnostics, not a correctness surface.
    pub(crate) fn record(&self, event: &Event) {
        let line = serde::json::to_string(event);
        let mut out = crate::sync::lock(&self.out);
        let _ = writeln!(out, "{line}");
    }

    /// Flushes buffered events to disk.
    pub(crate) fn flush(&self) {
        let _ = crate::sync::lock(&self.out).flush();
    }
}

impl Drop for EventTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_written_one_json_object_per_line() {
        let path = std::env::temp_dir().join("coruscant_runtime_events_test.jsonl");
        {
            let trace = EventTrace::create(&path).unwrap();
            trace.record(&Event::Submit { job: 1 });
            trace.record(&Event::Issue {
                job: 1,
                seq: 0,
                bank: 3,
                shard: 1,
            });
            trace.record(&Event::Complete {
                job: 1,
                bank: 3,
                wait: 0,
                done: 21,
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("Submit"));
        assert!(lines[1].contains("\"bank\":3"));
        assert!(lines[2].contains("\"done\":21"));
        // Every line parses back as a JSON value.
        for line in lines {
            serde::json::parse(line).unwrap();
        }
    }
}
