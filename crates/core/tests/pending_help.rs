//! A reader waiting for a pending value that a pool worker is computing
//! runs queued pool jobs on its own thread meanwhile (DESIGN.md §10.5).
//!
//! This is its own test binary so that the global pool is fresh: under a
//! budget of two threads it has exactly one worker. Each test keeps that
//! worker busy on the value it reads, so whatever is queued behind it runs
//! on the reader's thread or not at all, and the tests run one at a time.
//! The value the reader waits for is released by a queued job: a reader
//! that slept instead of helping would wait forever, so every read runs on
//! a thread of its own and the test fails after a timeout.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

use spyker_core::ParamVec;
use spyker_tensor::pool;

/// The tests share one worker: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn ramp(salt: f32) -> ParamVec {
    ParamVec::from_vec((0..4).map(|i| i as f32 + salt).collect())
}

/// A pending `ramp(0.0)` whose job the one worker has started and which
/// returns only once the returned sender sends.
fn held_by_the_worker() -> (ParamVec, Sender<()>) {
    std::env::set_var("SPYKER_THREADS", "2");
    assert_eq!(pool::configured_threads(), 2);
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let held = ParamVec::pending(4, move || {
        started_tx.send(()).expect("the test is waiting");
        release_rx.recv().expect("a queued job releases the value");
        ramp(0.0)
    });
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the one worker took the job");
    (held, release_tx)
}

/// Reads `value` on a thread of its own and returns that thread's id, or
/// fails if the read never returns.
fn read_elsewhere(value: ParamVec) -> ThreadId {
    let (done_tx, done_rx) = channel();
    let reader = thread::spawn(move || {
        let read = value.as_slice().to_vec();
        done_tx.send(()).expect("the test is waiting");
        read
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the reader slept on a value only a queued job could release");
    let id = reader.thread().id();
    let read = reader.join().expect("the reader returned");
    assert_eq!(read, ramp(0.0).into_vec());
    id
}

fn ran_on(rx: &Receiver<ThreadId>) -> ThreadId {
    rx.try_recv().expect("the queued job ran")
}

#[test]
fn a_reader_runs_a_queued_job_while_the_worker_computes_its_value() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, release) = held_by_the_worker();
    let (ran_tx, ran_rx) = channel();
    let queued = ParamVec::pending(4, move || {
        ran_tx.send(thread::current().id()).expect("receiver alive");
        release.send(()).expect("the held job is waiting");
        ramp(1.0)
    });
    let reader = read_elsewhere(held);
    assert_eq!(ran_on(&ran_rx), reader, "the queued job ran on the reader");
    assert_eq!(queued, ramp(1.0));
}

#[test]
fn a_helped_jobs_panic_reaches_its_own_reader_and_not_the_helper() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, release) = held_by_the_worker();
    let (ran_tx, ran_rx) = channel();
    let failing = ParamVec::pending(4, move || {
        ran_tx.send(thread::current().id()).expect("receiver alive");
        release.send(()).expect("the held job is waiting");
        panic!("the helped job's own message")
    });
    // The helper reads its own value and does not unwind.
    let reader = read_elsewhere(held);
    assert_eq!(ran_on(&ran_rx), reader);
    let raised = catch_unwind(AssertUnwindSafe(|| failing.as_slice().len()))
        .expect_err("the failed job's reader sees its panic");
    assert_eq!(
        raised.downcast_ref::<&str>(),
        Some(&"the helped job's own message")
    );
}

#[test]
fn a_helped_job_that_reads_a_pending_value_completes() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, release) = held_by_the_worker();
    let (inner_tx, inner_rx) = channel::<ParamVec>();
    let (ran_tx, ran_rx) = channel();
    // Queued ahead of the value it reads.
    let outer = ParamVec::pending(4, move || {
        let inner = inner_rx.recv().expect("the inner value was sent");
        let sum: f32 = inner.as_slice().iter().sum();
        ran_tx.send(thread::current().id()).expect("receiver alive");
        release.send(()).expect("the held job is waiting");
        ramp(sum)
    });
    let inner = ParamVec::pending(4, || ramp(2.0));
    inner_tx
        .send(inner.clone())
        .expect("the outer job waits for it");
    let reader = read_elsewhere(held);
    assert_eq!(ran_on(&ran_rx), reader);
    assert_eq!(outer, ramp(14.0));
    assert_eq!(inner, ramp(2.0));
}
