//! Dependency gating: jobs held out of the bank FIFOs until every
//! predecessor's *final* attempt retires.
//!
//! The scheduler owns one `DepTracker`. Chains admit atomically
//! (`DepTracker::admit`); as jobs reach their final attempt the
//! scheduler feeds `DepTracker::on_final` and places whatever was
//! released. A predecessor that errors, is cancelled, or whose binder
//! fails cascades: every transitive dependent is dropped (reported like
//! a cancellation — it never ran). Deferred jobs carry a `Binder` that
//! builds their program from the labeled outputs of their data
//! dependencies (activation hand-off between pipeline stages).

use crate::job::{PimJob, Placement};
use crate::sync::IdSet;
use coruscant_core::program::PimProgram;
use std::collections::{HashMap, HashSet};

/// Labeled outputs of one finished job, as its dependents see them.
pub(crate) type DepOutputs = Vec<(String, Vec<u64>)>;

/// Builds a deferred job's program from its data dependencies' outputs
/// (slices aligned with the declared dependency order). An `Err` drops
/// the job and cascades to its dependents.
pub(crate) type Binder =
    Box<dyn FnOnce(&[DepOutputs]) -> Result<PimProgram, String> + Send + 'static>;

/// Where a gated job's program comes from.
pub(crate) enum GatedSource {
    /// The job is complete at submission; it only waits for ordering.
    Ready(PimJob),
    /// The program is built once the listed jobs' outputs are known.
    Deferred {
        /// Data dependencies (global job ids), in binder-argument order.
        dep_ids: Vec<u64>,
        /// The program builder.
        build: Binder,
    },
}

/// One dependency-gated job as the scheduler holds it.
pub(crate) struct GatedJob {
    pub id: u64,
    pub source: GatedSource,
    pub placement: Placement,
    /// Every job id that must reach a final attempt first (data
    /// dependencies included), sorted and deduplicated.
    pub after: Vec<u64>,
}

struct Waiter {
    source: GatedSource,
    placement: Placement,
    pending: HashSet<u64>,
}

/// What one tracker step set free.
#[derive(Default)]
pub(crate) struct Released {
    /// Jobs now ready to place, ascending id.
    pub ready: Vec<PimJob>,
    /// Jobs dropped by cascade (failed/cancelled predecessor or binder
    /// failure), in discovery order. They never run.
    pub failed: Vec<u64>,
}

/// The scheduler-side dependency state machine.
#[derive(Default)]
pub(crate) struct DepTracker {
    waiting: HashMap<u64, Waiter>,
    /// dep id → waiting job ids.
    dependents: HashMap<u64, Vec<u64>>,
    /// Stashed outputs of finished jobs some deferred waiter still needs.
    outputs: HashMap<u64, DepOutputs>,
    /// dep id → deferred waiters still needing its outputs.
    watchers: HashMap<u64, usize>,
    /// Final state of every retired job, two bits per id: `2 * id`
    /// retired, `2 * id + 1` errored/cancelled.
    retired: IdSet,
    /// Jobs that entered the waiting state.
    pub deferred: u64,
    /// Jobs released after waiting.
    pub released: u64,
    /// Jobs dropped because a predecessor failed (or a binder errored).
    pub cascade_cancelled: u64,
}

impl DepTracker {
    pub(crate) fn new() -> DepTracker {
        DepTracker::default()
    }

    /// Whether no job is waiting on dependencies.
    pub(crate) fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Admits one chain. Members whose predecessors are already retired
    /// come back ready immediately; members gated on an already-failed
    /// predecessor come back failed.
    pub(crate) fn admit(&mut self, chain: Vec<GatedJob>) -> Released {
        let mut out = Released::default();
        for job in chain {
            self.admit_one(job, &mut out);
        }
        out
    }

    fn admit_one(&mut self, job: GatedJob, out: &mut Released) {
        // A predecessor that already failed dooms the job outright.
        if job.after.iter().any(|d| self.retired.contains(2 * d + 1)) {
            self.fail(job.id, out);
            return;
        }
        let pending: HashSet<u64> = job
            .after
            .iter()
            .copied()
            .filter(|d| !self.retired.contains(2 * d))
            .collect();
        if let GatedSource::Deferred { dep_ids, .. } = &job.source {
            // A data dependency that retired before this chain was
            // admitted has no stashed outputs; intra-chain deps (the only
            // ones `submit_chain` accepts for binders) make this
            // unreachable, but fail safe rather than bind garbage.
            if dep_ids
                .iter()
                .any(|d| self.retired.contains(2 * d) && !self.outputs.contains_key(d))
            {
                self.fail(job.id, out);
                return;
            }
        }
        self.register_watches(&job.source);
        if pending.is_empty() {
            self.release(job.id, job.source, job.placement, out);
        } else {
            for d in &pending {
                self.dependents.entry(*d).or_default().push(job.id);
            }
            self.waiting.insert(
                job.id,
                Waiter {
                    source: job.source,
                    placement: job.placement,
                    pending,
                },
            );
            self.deferred += 1;
        }
    }

    fn register_watches(&mut self, source: &GatedSource) {
        if let GatedSource::Deferred { dep_ids, .. } = source {
            for d in dep_ids {
                *self.watchers.entry(*d).or_insert(0) += 1;
            }
        }
    }

    fn unregister_watches(&mut self, dep_ids: &[u64]) {
        for d in dep_ids {
            if let Some(w) = self.watchers.get_mut(d) {
                *w -= 1;
                if *w == 0 {
                    self.watchers.remove(d);
                    self.outputs.remove(d);
                }
            }
        }
    }

    /// Records that `id`'s final attempt retired (or that it was
    /// cancelled, with `errored = true`) and returns whatever that set
    /// free. Idempotent per id. `outputs` are copied only if a deferred
    /// waiter still needs them.
    pub(crate) fn on_final(
        &mut self,
        id: u64,
        errored: bool,
        outputs: &[(String, Vec<u64>)],
    ) -> Released {
        let mut out = Released::default();
        if !self.retired.insert(2 * id) {
            return out;
        }
        if errored {
            self.retired.insert(2 * id + 1);
            self.fail_dependents(id, &mut out);
            return out;
        }
        if self.watchers.contains_key(&id) {
            self.outputs.insert(id, outputs.to_vec());
        }
        let Some(dependents) = self.dependents.remove(&id) else {
            return out;
        };
        let mut ready_ids = Vec::new();
        for w_id in dependents {
            if let Some(w) = self.waiting.get_mut(&w_id) {
                w.pending.remove(&id);
                if w.pending.is_empty() {
                    ready_ids.push(w_id);
                }
            }
        }
        // Ascending id keeps release order independent of ack timing.
        ready_ids.sort_unstable();
        for w_id in ready_ids {
            let w = self.waiting.remove(&w_id).expect("ready ids are waiting");
            self.released += 1;
            self.release(w_id, w.source, w.placement, &mut out);
        }
        out
    }

    /// Fails every job still waiting (queue closed with unsatisfiable
    /// dependencies). Returns the failed set.
    pub(crate) fn fail_all(&mut self) -> Released {
        let mut out = Released::default();
        let ids: Vec<u64> = self.waiting.keys().copied().collect();
        for id in ids {
            if let Some(w) = self.waiting.remove(&id) {
                if let GatedSource::Deferred { dep_ids, .. } = &w.source {
                    let dep_ids = dep_ids.clone();
                    self.unregister_watches(&dep_ids);
                }
                self.fail(id, &mut out);
            }
        }
        out
    }

    fn release(&mut self, id: u64, source: GatedSource, placement: Placement, out: &mut Released) {
        match source {
            GatedSource::Ready(job) => out.ready.push(job),
            GatedSource::Deferred { dep_ids, build } => {
                let inputs: Vec<DepOutputs> = dep_ids
                    .iter()
                    .map(|d| self.outputs.get(d).cloned().unwrap_or_default())
                    .collect();
                self.unregister_watches(&dep_ids);
                match build(&inputs) {
                    Ok(program) => out.ready.push(PimJob::verbatim(id, program, placement)),
                    Err(_) => self.fail(id, out),
                }
            }
        }
    }

    /// Marks `id` failed and cascades to everything waiting on it.
    fn fail(&mut self, id: u64, out: &mut Released) {
        self.retired.insert(2 * id);
        self.retired.insert(2 * id + 1);
        self.cascade_cancelled += 1;
        out.failed.push(id);
        self.fail_dependents(id, out);
    }

    fn fail_dependents(&mut self, id: u64, out: &mut Released) {
        let Some(dependents) = self.dependents.remove(&id) else {
            return;
        };
        for w_id in dependents {
            if let Some(w) = self.waiting.remove(&w_id) {
                if let GatedSource::Deferred { dep_ids, .. } = &w.source {
                    let dep_ids = dep_ids.clone();
                    self.unregister_watches(&dep_ids);
                }
                self.fail(w_id, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn gated(id: u64, after: &[u64]) -> GatedJob {
        GatedJob {
            id,
            source: GatedSource::Ready(PimJob::verbatim(
                id,
                PimProgram::default(),
                Placement::Auto,
            )),
            placement: Placement::Auto,
            after: after.to_vec(),
        }
    }

    #[test]
    fn independent_members_release_at_admit() {
        let mut t = DepTracker::new();
        let rel = t.admit(vec![gated(0, &[]), gated(1, &[])]);
        assert_eq!(rel.ready.len(), 2);
        assert!(rel.failed.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn gated_member_waits_for_final() {
        let mut t = DepTracker::new();
        let rel = t.admit(vec![gated(0, &[]), gated(1, &[0])]);
        assert_eq!(rel.ready.len(), 1);
        assert!(!t.is_empty());
        let rel = t.on_final(0, false, &[]);
        assert_eq!(rel.ready.len(), 1);
        assert_eq!(rel.ready[0].id, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn failed_predecessor_cascades_transitively() {
        let mut t = DepTracker::new();
        let rel = t.admit(vec![gated(0, &[]), gated(1, &[0]), gated(2, &[1])]);
        assert_eq!(rel.ready.len(), 1);
        let rel = t.on_final(0, true, &[]);
        assert!(rel.ready.is_empty());
        assert_eq!(rel.failed, vec![1, 2]);
        assert_eq!(t.cascade_cancelled, 2);
        assert!(t.is_empty());
    }

    #[test]
    fn binder_receives_dep_outputs_in_order() {
        let mut t = DepTracker::new();
        let seen: Arc<std::sync::Mutex<Vec<Vec<String>>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let chain = vec![
            gated(0, &[]),
            gated(1, &[]),
            GatedJob {
                id: 2,
                source: GatedSource::Deferred {
                    dep_ids: vec![1, 0],
                    build: Box::new(move |deps| {
                        sink.lock().unwrap().push(
                            deps.iter()
                                .map(|d| d.iter().map(|(l, _)| l.clone()).collect())
                                .collect::<Vec<Vec<String>>>()
                                .concat(),
                        );
                        Ok(PimProgram::default())
                    }),
                },
                placement: Placement::Auto,
                after: vec![0, 1],
            },
        ];
        let rel = t.admit(chain);
        assert_eq!(rel.ready.len(), 2);
        t.on_final(0, false, &[("a".into(), vec![1])]);
        let rel = t.on_final(1, false, &[("b".into(), vec![2])]);
        assert_eq!(rel.ready.len(), 1);
        assert_eq!(rel.ready[0].id, 2);
        // dep order [1, 0] → labels b then a.
        assert_eq!(seen.lock().unwrap()[0], vec!["b".to_string(), "a".into()]);
        // Stash is dropped once the last watcher consumed it.
        assert!(t.outputs.is_empty());
    }

    #[test]
    fn binder_error_cascades() {
        let mut t = DepTracker::new();
        let chain = vec![
            gated(0, &[]),
            GatedJob {
                id: 1,
                source: GatedSource::Deferred {
                    dep_ids: vec![0],
                    build: Box::new(|_| Err("nope".into())),
                },
                placement: Placement::Auto,
                after: vec![0],
            },
            gated(2, &[1]),
        ];
        t.admit(chain);
        let rel = t.on_final(0, false, &[]);
        assert!(rel.ready.is_empty());
        assert_eq!(rel.failed, vec![1, 2]);
    }

    #[test]
    fn fail_all_drops_the_unsatisfiable_tail() {
        let mut t = DepTracker::new();
        t.admit(vec![gated(5, &[3])]);
        let rel = t.fail_all();
        assert_eq!(rel.failed, vec![5]);
        assert!(t.is_empty());
    }

    #[test]
    fn already_retired_predecessors_count_as_satisfied() {
        let mut t = DepTracker::new();
        t.on_final(7, false, &[]);
        let rel = t.admit(vec![gated(9, &[7])]);
        assert_eq!(rel.ready.len(), 1);
        let rel = t.admit(vec![gated(10, &[9])]);
        assert!(rel.ready.is_empty(), "9 has not retired yet");
        let rel = t.on_final(9, false, &[]);
        assert_eq!(rel.ready[0].id, 10);
    }
}
