//! Closed-loop load smoke test: several client threads drive the server
//! concurrently, each submitting and waiting in a loop. Asserts zero
//! lost completions, balanced accounting, and a sane p99 — the same
//! check CI runs as its server smoke job.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_server::{Server, ServerOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn and_program(config: &MemoryConfig, a: u64, b: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
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

#[test]
fn closed_loop_load_loses_nothing() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;

    let config = MemoryConfig::tiny();
    let server = Server::start(config.clone(), ServerOptions::default()).unwrap();
    let config = Arc::new(config);

    let joins: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = server.client();
            let config = Arc::clone(&config);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(PER_CLIENT);
                for i in 0..PER_CLIENT {
                    let a = (t * PER_CLIENT + i) as u64;
                    let b = a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let started = Instant::now();
                    let done = client
                        .submit(and_program(&config, a, b))
                        .expect("closed-loop submission admitted")
                        .wait()
                        .expect("closed-loop job completes");
                    latencies.push(started.elapsed());
                    assert!(done.outputs[0].1.iter().all(|&w| w == a & b));
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<Duration> = joins
        .into_iter()
        .flat_map(|j| j.join().expect("client thread"))
        .collect();
    latencies.sort();
    let total = CLIENTS * PER_CLIENT;
    assert_eq!(latencies.len(), total);
    let p99 = latencies[(total * 99).div_ceil(100) - 1];
    // Generous bound — this guards against pathological stalls (a wedged
    // scheduler or worker), not normal jitter.
    assert!(p99 < Duration::from_secs(5), "p99 {p99:?}");

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.lost, 0, "zero lost completions");
    assert_eq!(stats.submitted, total as u64);
    assert_eq!(stats.completed, total as u64);
    assert!(stats.balanced(), "{stats:?}");
}
