//! Property tests for the admission-controlled serving frontend: every
//! accepted job completes exactly once with correct outputs, rejected
//! jobs never touch a bank, and the final accounting always balances.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_runtime::RuntimeOptions;
use coruscant_server::{
    AdmissionOptions, Priority, Rejected, Server, ServerOptions, SubmitOptions,
};
use proptest::prelude::*;

/// A minimal two-operand AND job: load, fuse, read back. The readout is
/// `a & b`, so completions are checkable.
fn and_program(config: &MemoryConfig, a: u64, b: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0); // nominal; the executor binds it to a unit
    let width = config.nanowires_per_dbc;
    let lanes = width.div_ceil(64);
    let bs = BlockSize::new(64.min(width)).unwrap();
    let row = |r| RowAddress::new(loc, r);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: row(4),
                values: vec![a; lanes],
                lane: 64,
            },
            Step::Load {
                addr: row(5),
                values: vec![b; lanes],
                lane: 64,
            },
            Step::Exec(CpimInstr::new(CpimOpcode::And, row(4), 2, bs, Some(row(20))).unwrap()),
            Step::Readout {
                label: "and".into(),
                addr: row(20),
                lane: 64,
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a gated scheduler and a tiny queue, admission control sheds
    /// deterministically — and every verdict is accounted for exactly
    /// once: accepted handles resolve Ok with the right value, rejected
    /// submissions never become runtime jobs.
    #[test]
    fn accepted_complete_once_rejected_never_execute(
        operands in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        queue_capacity in 1usize..8,
        priorities in proptest::collection::vec(0usize..3, 24),
    ) {
        let config = MemoryConfig::tiny();
        let mut runtime = RuntimeOptions::default().paused();
        runtime.queue_capacity = queue_capacity;
        let server = Server::start(
            config.clone(),
            ServerOptions {
                runtime,
                admission: AdmissionOptions::enabled(),
                ..ServerOptions::default()
            },
        ).unwrap();
        let client = server.client();

        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for (i, &(a, b)) in operands.iter().enumerate() {
            let priority = Priority::ALL[priorities[i]];
            match client.submit_with(
                and_program(&config, a, b),
                SubmitOptions::priority(priority),
            ) {
                Ok(handle) => accepted.push((handle, a & b)),
                Err(Rejected::Overload | Rejected::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        let n_accepted = accepted.len() as u64;
        let stats = server.shutdown().unwrap();

        prop_assert!(stats.balanced(), "{stats:?}");
        prop_assert_eq!(stats.submitted, operands.len() as u64);
        prop_assert_eq!(stats.accepted, n_accepted);
        prop_assert_eq!(stats.completed, n_accepted, "accepted all complete");
        prop_assert_eq!(stats.rejected(), rejected);
        // Rejected jobs never touched a bank: the wrapped runtime only
        // ever saw the accepted ones.
        prop_assert_eq!(stats.runtime.jobs, n_accepted);
        for (handle, want) in accepted {
            let done = handle.wait().expect("accepted job resolves Ok");
            prop_assert_eq!(done.outputs.len(), 1);
            prop_assert!(done.outputs[0].1.iter().all(|&w| w == want));
        }
    }

    /// With admission disabled (the deterministic default) nothing is
    /// ever shed: submitted == accepted == completed, even through a
    /// queue far smaller than the workload (blocking backpressure).
    #[test]
    fn disabled_admission_accepts_and_completes_everything(
        operands in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        queue_capacity in 1usize..4,
    ) {
        let config = MemoryConfig::tiny();
        let runtime = RuntimeOptions { queue_capacity, ..RuntimeOptions::default() };
        let server = Server::start(
            config.clone(),
            ServerOptions {
                runtime,
                admission: AdmissionOptions::default(),
                ..ServerOptions::default()
            },
        ).unwrap();
        let client = server.client();
        let handles: Vec<_> = operands
            .iter()
            .map(|&(a, b)| (client.submit(and_program(&config, a, b)).unwrap(), a & b))
            .collect();
        let stats = server.shutdown().unwrap();
        prop_assert!(stats.balanced(), "{stats:?}");
        prop_assert_eq!(stats.accepted, operands.len() as u64);
        prop_assert_eq!(stats.completed, operands.len() as u64);
        prop_assert_eq!(stats.rejected(), 0);
        for (handle, want) in handles {
            let done = handle.wait().expect("job resolves Ok");
            prop_assert!(done.outputs[0].1.iter().all(|&w| w == want));
        }
    }
}
