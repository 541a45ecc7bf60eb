//! The classic scheduler is one loop whose supervision layers — the
//! execution watchdog, a chaos plan — do nothing unless they fire: "a
//! supervision layer that never fires does not move a modeled number".

use coruscant::mem::MemoryConfig;
use coruscant::runtime::{
    ChaosPlan, Placement, Runtime, RuntimeOptions, RuntimeReport, WatchdogOptions,
};
use coruscant::workloads::serve::all_workload_programs;

fn eight_bank_config() -> MemoryConfig {
    MemoryConfig {
        banks: 8,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// Serves the whole workload corpus live (no staging behind the gate:
/// submissions race the scheduler, as in production).
fn serve(options: RuntimeOptions) -> RuntimeReport {
    let config = eight_bank_config();
    let programs = all_workload_programs(&config);
    let runtime = Runtime::new(config, options).expect("runtime starts");
    for program in programs {
        runtime
            .submit(program, Placement::Auto)
            .expect("submission accepted");
    }
    runtime.finish().expect("session drains")
}

/// Default options, the watchdog enabled with a budget nothing can
/// exceed, and a quiet chaos plan all produce the same report at every
/// shard count: same outcomes (ids, seqs, units, outputs, device / wait
/// / completion cycles) and the same modeled stats. In particular the
/// watchdog session is not capped at a few dispatches in flight per
/// bank, which would let ack timing reorder issue.
#[test]
fn idle_supervision_layers_do_not_move_a_modeled_number() {
    let baseline = serve(RuntimeOptions::default().with_shards(1));
    assert!(!baseline.outcomes.is_empty());
    let generous = WatchdogOptions {
        enabled: true,
        base_ms: 60_000,
        ..WatchdogOptions::default()
    };
    for shards in [1usize, 2, 4, 8] {
        let arms = [
            ("default", RuntimeOptions::default()),
            (
                "watchdog",
                RuntimeOptions::default().with_watchdog(generous),
            ),
            (
                "quiet chaos",
                RuntimeOptions::default().with_chaos(ChaosPlan::quiet(7)),
            ),
        ];
        for (name, options) in arms {
            let report = serve(options.with_shards(shards));
            let (got, want) = (&report.stats, &baseline.stats);
            assert_eq!(
                report.outcomes, baseline.outcomes,
                "{name}, shards={shards}"
            );
            assert_eq!(
                got.makespan_cycles, want.makespan_cycles,
                "{name}, shards={shards}"
            );
            assert_eq!(
                got.device_cycles, want.device_cycles,
                "{name}, shards={shards}"
            );
            assert_eq!(got.controller, want.controller, "{name}, shards={shards}");
            assert_eq!(got.per_bank, want.per_bank, "{name}, shards={shards}");
            assert_eq!(got.supervision, want.supervision, "{name} fired");
        }
    }
}
