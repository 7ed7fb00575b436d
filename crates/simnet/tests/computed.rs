//! Computed sends (`Env::send_computed`) under the DES: the message
//! travels as its job and settles where its delivery is handed over.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use common::{recorder_received, Msg, Recorder, Script};
use spyker_simnet::{
    AvailabilityPlan, Env, FaultPlan, JobHandle, NetworkConfig, Region, SimTime, Simulation,
    WireSize,
};

/// The `i`-th message every sender below sends.
fn nth(i: u32) -> Msg {
    Msg {
        payload: i * 7 + 3,
        bytes: 1_000 + 5_000 * (i as usize % 3),
    }
}

/// A sender of `count` messages to node 1 at start: each sent as it is,
/// or through a computed send whose job counts its runs in `runs`. The
/// computed sends' handles go to `handles`.
fn sender(
    count: u32,
    computed: bool,
    runs: &Arc<AtomicUsize>,
    handles: &Arc<Mutex<Vec<JobHandle<Msg>>>>,
) -> Box<Script<Msg>> {
    let (runs, handles) = (Arc::clone(runs), Arc::clone(handles));
    Box::new(Script::new(move |env: &mut dyn Env<Msg>| {
        for i in 0..count {
            let msg = nth(i);
            if computed {
                let runs = Arc::clone(&runs);
                let job = Box::new(move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    msg
                });
                let (bytes, kind) = (nth(i).wire_size(), nth(i).kind());
                let handle = env.send_computed(1, bytes, kind, job);
                handles
                    .lock()
                    .unwrap()
                    .push(handle.expect("the DES runs the job"));
            } else {
                env.send(1, msg);
            }
        }
    }))
}

/// Runs `sim` until `until` with a sender of `count` messages (node 0)
/// and a recorder (node 1).
fn run(
    mut sim: Simulation<Msg>,
    count: u32,
    computed: bool,
    runs: &Arc<AtomicUsize>,
    handles: &Arc<Mutex<Vec<JobHandle<Msg>>>>,
    until: SimTime,
) -> Simulation<Msg> {
    sim.add_node(sender(count, computed, runs, handles), Region::Paris);
    let received = Vec::new();
    sim.add_node(Box::new(Recorder { received }), Region::Sydney);
    sim.run(until);
    sim
}

#[test]
fn computed_sends_deliver_what_inline_sends_do() {
    let per_message = NetworkConfig::uniform_all(SimTime::from_millis(10))
        .with_jitter(SimTime::from_millis(3))
        .with_bandwidth_bps(8_000_000);
    let flow_shared = per_message.clone().with_flow_shared_links();
    for net in [per_message, flow_shared] {
        let outcome = |computed| {
            let (runs, handles) = (Arc::default(), Arc::default());
            let sim = Simulation::new(net.clone(), 5);
            let sim = run(sim, 12, computed, &runs, &handles, SimTime::MAX);
            let bytes = ["net.bytes", "net.bytes.test"].map(|c| sim.metrics().counter(c));
            (recorder_received(&sim), sim.now(), bytes)
        };
        let inline = outcome(false);
        assert_eq!(inline.0.len(), 12);
        assert_eq!(outcome(true), inline);
    }
}

#[test]
fn every_computed_job_runs_exactly_once() {
    // Lost on the link, discarded at an offline receiver, delivered, and
    // still in flight when the run stops.
    let net = || NetworkConfig::uniform_all(SimTime::from_millis(10));
    let lossy = |sim: Simulation<Msg>| sim.with_faults(FaultPlan::none().with_loss(0.5));
    let offline = |sim: Simulation<Msg>| {
        let window =
            AvailabilityPlan::none().offline_window(1, SimTime::ZERO, SimTime::from_secs(9));
        sim.with_availability(window)
    };
    let (runs, handles) = (Arc::new(AtomicUsize::new(0)), Arc::default());
    let mut fates = Vec::new();
    for (setup, until) in [
        (&lossy as &dyn Fn(_) -> _, SimTime::MAX),
        (&offline, SimTime::MAX),
        (&|sim| sim, SimTime::from_millis(5)),
    ] {
        let sim = setup(Simulation::new(net(), 9));
        let sim = run(sim, 16, true, &runs, &handles, until);
        let lost = ["fault.dropped", "sim.availability.discarded"];
        let lost = lost.map(|c| sim.metrics().counter(c) as usize);
        fates.push((lost, recorder_received(&sim).len()));
    }
    let [(lossy, delivered), offline, in_flight] = fates[..] else {
        unreachable!()
    };
    assert!(lossy[0] > 0 && delivered > 0 && lossy[0] + delivered == 16);
    assert_eq!(offline, ([0, 16], 0));
    assert_eq!(in_flight, ([0, 0], 0));
    for handle in std::mem::take(&mut *handles.lock().unwrap()) {
        handle.wait();
    }
    assert_eq!(runs.load(Ordering::SeqCst), 48);
    thread::sleep(Duration::from_millis(20));
    assert_eq!(runs.load(Ordering::SeqCst), 48);
}

#[test]
fn a_lost_delivery_does_not_wait_for_its_job() {
    type Setup = fn(Simulation<Msg>) -> Simulation<Msg>;
    let lossy: Setup = |sim| sim.with_faults(FaultPlan::none().with_loss(1.0));
    let offline: Setup = |sim| {
        let (start, end) = (SimTime::ZERO, SimTime::from_secs(1));
        sim.with_availability(AvailabilityPlan::none().offline_window(1, start, end))
    };
    for (setup, lost) in [
        (lossy, "fault.dropped"),
        (offline, "sim.availability.discarded"),
    ] {
        let (release, gate) = channel::<()>();
        if spyker_tensor::pool::configured_threads() == 1 {
            // No workers: the job runs inside the send, so open first.
            release.send(()).unwrap();
        }
        let gate = Mutex::new(gate);
        let (handle_tx, handle_rx) = channel();
        let (done_tx, done_rx) = channel();
        let running = thread::spawn(move || {
            let net = NetworkConfig::uniform_all(SimTime::from_millis(10));
            let mut sim = setup(Simulation::new(net, 1));
            let send = Script::new(move |env: &mut dyn Env<Msg>| {
                let job = Box::new(move || {
                    let gate = gate.lock().unwrap();
                    gate.recv().expect("the test opens the gate");
                    nth(0)
                });
                let handle = env.send_computed(1, nth(0).wire_size(), "test", job);
                handle_tx.send(handle).expect("the run is alive");
            });
            sim.add_node(Box::new(send), Region::Paris);
            let received = Vec::new();
            sim.add_node(Box::new(Recorder { received }), Region::Paris);
            sim.run(SimTime::MAX);
            let handle = handle_rx.recv().expect("the script ran");
            let counted = sim.metrics().counter(lost);
            done_tx
                .send((counted, handle))
                .expect("the test is waiting");
        });
        let (counted, handle) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run waited for a job whose delivery was lost");
        let handle = handle.expect("the DES runs the job");
        assert_eq!(counted, 1, "{lost}");
        let _ = release.send(());
        handle.wait();
        running.join().expect("the run returned");
    }
}

/// A simulation whose node 0 sends one message through a computed send
/// that `job` builds, declared as `bytes` of `kind`.
fn deliver_one(bytes: usize, kind: &'static str, job: impl FnOnce() -> Msg + Send + 'static) {
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1);
    let send = Script::new(move |env: &mut dyn Env<Msg>| {
        env.send_computed(1, bytes, kind, Box::new(job));
    });
    sim.add_node(Box::new(send), Region::Paris);
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Paris,
    );
    sim.run(SimTime::MAX);
    assert_eq!(recorder_received(&sim).len(), 1);
}

#[test]
fn a_computed_send_of_the_declared_message_is_delivered() {
    deliver_one(40, "test", || Msg {
        payload: 1,
        bytes: 40,
    });
}

#[test]
#[should_panic(expected = "the job's own message")]
fn a_computed_jobs_panic_is_raised_where_its_delivery_settles() {
    deliver_one(40, "test", || panic!("the job's own message"));
}

#[test]
#[should_panic(expected = "another message than it declared")]
fn a_computed_message_must_have_its_declared_size() {
    deliver_one(40, "test", || Msg {
        payload: 1,
        bytes: 41,
    });
}

#[test]
#[should_panic(expected = "another message than it declared")]
fn a_computed_message_must_have_its_declared_kind() {
    deliver_one(40, "other", || Msg {
        payload: 1,
        bytes: 40,
    });
}
