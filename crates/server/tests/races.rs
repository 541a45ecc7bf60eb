//! Terminal races on job handles: expiry vs completion, late cancels,
//! waker registration vs pre-resolution, and submissions racing drain.
//! Every race must end with the handle resolved exactly once and the
//! server's accounting balanced.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_runtime::RuntimeOptions;
use coruscant_server::{Rejected, ServeError, Server, ServerOptions, SubmitOptions};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

fn add_job(a: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![a; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![7; 8],
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

struct FlagWaker(AtomicBool);

impl Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// Completion beats the deadline: a job that finishes well inside its
/// deadline resolves `Ok` exactly once, and the deadline passing later
/// changes nothing.
#[test]
fn completion_beats_expiry_sweep() {
    let server = Server::start(MemoryConfig::tiny(), ServerOptions::default()).unwrap();
    let client = server.client();
    let handle = client
        .submit_with(
            add_job(1),
            SubmitOptions::default().with_deadline(Duration::from_millis(300)),
        )
        .unwrap();
    let done = handle.wait().expect("completes well inside the deadline");
    assert_eq!(done.outputs[0].1[0], 8);
    // Let the deadline pass before draining.
    std::thread::sleep(Duration::from_millis(400));
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.expired, 0, "a resolved job cannot expire");
    assert!(stats.balanced(), "{stats:?}");
}

/// A cancel issued after the job completed is a no-op: the resolution
/// stands and nothing double-counts.
#[test]
fn late_cancel_after_completion_is_moot() {
    let server = Server::start(MemoryConfig::tiny(), ServerOptions::default()).unwrap();
    let client = server.client();
    let mut handle = client.submit(add_job(2)).unwrap();
    let id = handle.id();
    // Wait for the resolution without consuming it.
    while !handle.is_done() {
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(id);
    std::thread::sleep(Duration::from_millis(30));
    assert!(handle.try_take().unwrap().is_ok(), "the completion stands");
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 0);
    assert!(stats.balanced(), "{stats:?}");
}

/// A waker registered while the job is pending is woken by the
/// resolution, and the follow-up poll is `Ready`.
#[test]
fn registered_waker_is_woken_by_resolution() {
    let server = Server::start(
        MemoryConfig::tiny(),
        ServerOptions {
            runtime: RuntimeOptions::default().paused(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();
    let mut handle = client.submit(add_job(3)).unwrap();

    let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
    let waker = Waker::from(Arc::clone(&flag));
    let mut cx = Context::from_waker(&waker);
    assert!(
        Pin::new(&mut handle).poll(&mut cx).is_pending(),
        "gated scheduler: nothing resolved yet"
    );
    server.resume();
    // The runtime's resolution must call our waker.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !flag.0.load(Ordering::Acquire) {
        assert!(std::time::Instant::now() < deadline, "waker never woken");
        std::thread::sleep(Duration::from_millis(2));
    }
    match Pin::new(&mut handle).poll(&mut cx) {
        Poll::Ready(Ok(done)) => assert_eq!(done.outputs[0].1[0], 10),
        other => panic!("woken poll must be ready-ok: {other:?}"),
    }
    let stats = server.shutdown().unwrap();
    assert!(stats.balanced(), "{stats:?}");
}

/// Polling a handle whose completion raced ahead of the first poll is
/// immediately `Ready` — no waker registration, no wake needed.
#[test]
fn poll_after_pre_resolution_is_ready() {
    let server = Server::start(MemoryConfig::tiny(), ServerOptions::default()).unwrap();
    let client = server.client();
    let mut handle = client.submit(add_job(4)).unwrap();
    while !handle.is_done() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
    let waker = Waker::from(Arc::clone(&flag));
    let mut cx = Context::from_waker(&waker);
    match Pin::new(&mut handle).poll(&mut cx) {
        Poll::Ready(Ok(done)) => assert_eq!(done.outputs[0].1[0], 11),
        other => panic!("pre-resolved poll must be ready: {other:?}"),
    }
    assert!(
        !flag.0.load(Ordering::Acquire),
        "no wake was needed or issued"
    );
    server.shutdown().unwrap();
}

/// Submissions racing `shutdown` never strand a handle: each submit
/// either rejects `Closed` or yields a handle that resolves (drain
/// flushes accepted work), and the final accounting balances with
/// nothing lost.
#[test]
fn submissions_racing_shutdown_never_strand_handles() {
    let server = Server::start(MemoryConfig::tiny(), ServerOptions::default()).unwrap();
    let client = server.client();
    let submitter = std::thread::spawn(move || {
        let mut handles = Vec::new();
        let mut rejected = 0u64;
        for tag in 0..200u64 {
            match client.submit(add_job(tag)) {
                Ok(h) => handles.push(h),
                Err(Rejected::Closed) => {
                    // Draining: every further submit is Closed too. Stop
                    // so no increment races the final counter snapshot.
                    rejected += 1;
                    break;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        (handles, rejected)
    });
    std::thread::sleep(Duration::from_millis(5));
    let stats = server.shutdown().unwrap();
    let (handles, rejected) = submitter.join().unwrap();
    assert!(handles.len() as u64 + rejected <= 200);
    for h in handles {
        match h.wait() {
            Ok(_) | Err(ServeError::Lost) => {}
            Err(e) => panic!("unexpected fate at drain: {e}"),
        }
    }
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.accepted + stats.rejected(), stats.submitted);
}
