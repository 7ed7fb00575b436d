//! A thread settling a computed send's delivery while a pool worker is
//! still running its job runs queued pool jobs meanwhile (DESIGN.md
//! §10.5).
//!
//! This is its own test binary so that the global pool is fresh: under a
//! budget of two threads it has exactly one worker. Each test keeps that
//! worker busy on the first message it sends, so whatever is queued behind
//! it runs on the thread that settles that message or not at all, and the
//! tests run one at a time. The first message is released by a queued
//! job: a settling thread that slept instead of helping would wait
//! forever, so every run has a thread of its own and the test fails after
//! a timeout.

mod common;

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

use common::Script;
use spyker_simnet::{Env, NetworkConfig, Node, NodeId, Region, SimTime, Simulation, WireSize};
use spyker_tensor::pool;

/// The tests share one worker: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[derive(Debug, PartialEq)]
struct Val(Vec<f32>);

impl WireSize for Val {
    fn wire_size(&self) -> usize {
        4 * self.0.len()
    }
}

fn ramp(salt: f32) -> Val {
    Val((0..4).map(|i| i as f32 + salt).collect())
}

/// What a computed send's job builds.
type Job = Box<dyn FnOnce() -> Val + Send>;

/// Sends to node 1 the message `job` builds.
fn send(env: &mut dyn Env<Val>, job: impl FnOnce() -> Val + Send + 'static) {
    env.send_computed(1, 16, "msg", Box::new(job));
}

/// A job for `ramp(0.0)` that the one worker has started once the
/// returned receiver receives, and which returns only once the returned
/// sender sends.
fn held() -> (Job, Receiver<()>, Sender<()>) {
    std::env::set_var("SPYKER_THREADS", "2");
    assert_eq!(pool::configured_threads(), 2);
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let job = Box::new(move || {
        started_tx.send(()).expect("the sender is waiting");
        release_rx
            .recv()
            .expect("a queued job releases the message");
        ramp(0.0)
    });
    (job, started_rx, release_tx)
}

/// Sends the held job's message, and once the worker has started it, runs
/// `then` — all at start, in node 0's handler.
fn held_then(
    held: Job,
    started: Receiver<()>,
    then: impl FnOnce(&mut dyn Env<Val>) + Send + 'static,
) -> Script<Val> {
    Script::new(move |env: &mut dyn Env<Val>| {
        send(env, held);
        started
            .recv_timeout(Duration::from_secs(30))
            .expect("the one worker took the job");
        then(env);
    })
}

/// Records what it receives where the test can read it after a panic.
struct Log(Arc<Mutex<Vec<Val>>>);

impl Node<Val> for Log {
    fn on_start(&mut self, _env: &mut dyn Env<Val>) {}
    fn on_message(&mut self, _env: &mut dyn Env<Val>, _from: NodeId, msg: Val) {
        self.0.lock().unwrap().push(msg);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs a simulation of `sender` (node 0) and a log (node 1) on a thread
/// of its own; returns that thread's id, how the run ended and what the
/// log received. Fails if the run never returns.
fn run_elsewhere(sender: Script<Val>) -> (ThreadId, thread::Result<()>, Vec<Val>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let received = Arc::clone(&log);
    let (done_tx, done_rx) = channel();
    let runner = thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let net = NetworkConfig::uniform_all(SimTime::from_millis(10));
            let mut sim = Simulation::new(net, 1);
            sim.add_node(Box::new(sender), Region::Paris);
            sim.add_node(Box::new(Log(received)), Region::Paris);
            sim.run(SimTime::from_secs(1));
        }));
        done_tx.send(()).expect("the test is waiting");
        outcome
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the run slept on a message only a queued job could release");
    let id = runner.thread().id();
    let outcome = runner.join().expect("the run caught its own panic");
    let log = std::mem::take(&mut *log.lock().unwrap());
    (id, outcome, log)
}

fn ran_on(rx: &Receiver<ThreadId>) -> ThreadId {
    rx.try_recv().expect("the queued job ran")
}

#[test]
fn a_settling_thread_runs_a_queued_job_while_the_worker_builds_its_message() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, started, release) = held();
    let (ran_tx, ran_rx) = channel();
    let sender = held_then(held, started, move |env| {
        send(env, move || {
            ran_tx.send(thread::current().id()).expect("receiver alive");
            release.send(()).expect("the held job is waiting");
            ramp(1.0)
        });
    });
    let (runner, outcome, log) = run_elsewhere(sender);
    outcome.expect("the run completes");
    assert_eq!(
        ran_on(&ran_rx),
        runner,
        "the queued job ran on the run's thread"
    );
    assert_eq!(log, [ramp(0.0), ramp(1.0)]);
}

#[test]
fn a_helped_jobs_panic_reaches_its_own_delivery_and_not_the_helper() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, started, release) = held();
    let (ran_tx, ran_rx) = channel();
    let sender = held_then(held, started, move |env| {
        send(env, move || {
            ran_tx.send(thread::current().id()).expect("receiver alive");
            release.send(()).expect("the held job is waiting");
            panic!("the helped job's own message")
        });
    });
    let (runner, outcome, log) = run_elsewhere(sender);
    assert_eq!(ran_on(&ran_rx), runner);
    // The helper settled its own message and handed it over.
    assert_eq!(log, [ramp(0.0)]);
    let raised = outcome.expect_err("the failed job's delivery raises its panic");
    assert_eq!(
        raised.downcast_ref::<&str>(),
        Some(&"the helped job's own message")
    );
}

#[test]
fn a_helped_job_that_waits_for_another_computed_send_completes() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (held, started, release) = held();
    let (inner_tx, inner_rx) = channel();
    let (ran_tx, ran_rx) = channel();
    let sender = held_then(held, started, move |env| {
        // Queued ahead of the job it waits for.
        send(env, move || {
            let inner: spyker_simnet::JobHandle<Val> =
                inner_rx.recv().expect("the inner handle was sent");
            inner.wait();
            ran_tx.send(thread::current().id()).expect("receiver alive");
            release.send(()).expect("the held job is waiting");
            ramp(1.0)
        });
        let inner = env.send_computed(1, 16, "msg", Box::new(|| ramp(2.0)));
        inner_tx
            .send(inner.expect("the DES runs the job"))
            .expect("the outer job waits for it");
    });
    let (runner, outcome, log) = run_elsewhere(sender);
    outcome.expect("the run completes");
    assert_eq!(ran_on(&ran_rx), runner);
    assert_eq!(log, [ramp(0.0), ramp(1.0), ramp(2.0)]);
}
