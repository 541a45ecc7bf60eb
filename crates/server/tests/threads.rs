//! A server is policy over its runtime, not a second set of threads:
//! `Server::start` starts exactly the threads `Runtime::new` starts with
//! the same options, and nothing besides.
//!
//! Its own test binary, so no other test's threads are counted. Linux
//! only: it reads the process's thread count from `/proc/self/status`.

#![cfg(target_os = "linux")]

use coruscant_mem::MemoryConfig;
use coruscant_runtime::{Runtime, RuntimeOptions};
use coruscant_server::{Server, ServerOptions};
use std::time::{Duration, Instant};

/// The process's live threads.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    let count = line.and_then(|l| l.split_whitespace().nth(1));
    count.and_then(|n| n.parse().ok()).expect("a Threads: line")
}

/// Waits until the joined threads of a finished session have left the
/// count (a joined thread can outlive its join by a moment).
fn settle_to(count: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != count {
        assert!(
            Instant::now() < deadline,
            "{} threads, not {count}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_server_starts_exactly_the_threads_of_its_runtime() {
    let options = || RuntimeOptions::default().with_shards(2);
    let idle = threads();
    let runtime = Runtime::new(MemoryConfig::tiny(), options()).expect("runtime starts");
    let with_runtime = threads();
    assert!(with_runtime > idle, "the runtime runs threads of its own");
    runtime.finish().expect("runtime drains");
    settle_to(idle);

    let served = ServerOptions {
        runtime: options(),
        ..ServerOptions::default()
    };
    let server = Server::start(MemoryConfig::tiny(), served).expect("server starts");
    assert_eq!(threads(), with_runtime, "the server added threads");
    server.shutdown().expect("server drains");
    settle_to(idle);
}
