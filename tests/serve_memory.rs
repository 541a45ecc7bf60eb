//! A served session runs in bounded memory: the bytes the process holds
//! live do not grow with the number of jobs a `Server` has served.
//!
//! Its own test binary, because it installs a counting global allocator
//! (what the process holds is measured exactly, with no `/proc` read).
//! Before streaming accounting every completion of a session stayed
//! buffered until `Runtime::finish`: 437 live bytes per job served here
//! (≈ 1.3 kB of resident memory per job on the benchmark's
//! `serve_short`).

use coruscant::core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant::core::program::{PimProgram, Step};
use coruscant::mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant::runtime::RuntimeOptions;
use coruscant::server::{Server, ServerOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The shortest job the stack serves: two rows in, one add, one row out.
fn add_job(tag: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![tag & 0x7F; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![3; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(loc, 4),
                    2,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            ),
            Step::Readout {
                label: "sum".into(),
                addr: RowAddress::new(loc, 20),
                lane: 8,
            },
        ],
    }
}

/// Serves `warm` jobs through one `Server`, then `more`, closed loop
/// with 32 handles outstanding, and returns how many live bytes each of
/// the `more` jobs left behind.
fn live_bytes_per_job(warm: u64, more: u64) -> f64 {
    let options = ServerOptions {
        runtime: RuntimeOptions {
            queue_capacity: 4096,
            ..RuntimeOptions::default()
        },
        ..ServerOptions::default()
    };
    let server = Server::start(MemoryConfig::tiny(), options).expect("server starts");
    let client = server.client();
    let serve = |jobs: u64| {
        let mut outstanding = VecDeque::with_capacity(32);
        for i in 0..jobs {
            if outstanding.len() == 32 {
                let handle: coruscant::server::JobHandle = outstanding.pop_front().unwrap();
                let done = handle.wait().expect("job completes");
                assert_eq!(done.outputs.len(), 1);
            }
            // Eight distinct programs: the compile cache always hits.
            outstanding.push_back(client.submit(add_job(i % 8)).expect("accepted"));
        }
        for handle in outstanding {
            handle.wait().expect("job completes");
        }
        LIVE.load(Ordering::Relaxed)
    };
    let after_warm = serve(warm);
    let after_more = serve(more);
    let stats = server.shutdown().expect("server drains");
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.completed, warm + more);
    assert_eq!(stats.runtime.jobs, warm + more);
    let per_job = (after_more - after_warm) as f64 / more as f64;
    println!("{per_job:.2} live bytes per job over {more} jobs after the first {warm}");
    per_job
}

#[test]
fn live_bytes_do_not_grow_with_jobs_served() {
    let per_job = live_bytes_per_job(10_000, 60_000);
    assert!(
        per_job < 5.0,
        "a served job left {per_job:.1} live bytes behind"
    );
}

/// The CI soak: flat between 100 k and 1 M jobs, up to the job-id
/// bitsets (four bits per job).
#[test]
#[ignore = "≥ 1 M jobs; run by the soak-smoke CI job in release"]
fn live_bytes_stay_flat_over_a_million_jobs() {
    let per_job = live_bytes_per_job(100_000, 900_000);
    assert!(
        per_job < 2.0,
        "a served job left {per_job:.2} live bytes behind"
    );
}
