//! The event loop end to end: delivery timing and per-link FIFO, busy
//! queues, probes and taps, timers, compute tiers, both schedulers and
//! flow-shared links.

mod common;

use std::any::Any;
use std::ops::ControlFlow;

use common::{recorder_received, two_node_sim, Burst, BurstTo, Msg, Recorder};
use spyker_simnet::{
    AvailabilityPlan, Env, EventTap, FaultPlan, NetworkConfig, Node, NodeId, Region, SchedulerKind,
    SimTime, Simulation, TapCtx, TapKind,
};

#[test]
fn delivery_charges_latency_and_serialization() {
    // 125_000 bytes at 100 Mbps = 10 ms serialization + 10 ms latency.
    let mut sim = two_node_sim(Box::new(Burst {
        count: 1,
        bytes: 125_000,
    }));
    sim.run(SimTime::from_secs(1));
    let recv = recorder_received(&sim);
    assert_eq!(recv.len(), 1);
    assert_eq!(recv[0].0, SimTime::from_millis(20));
}

#[test]
fn links_are_fifo_even_with_mixed_sizes() {
    // A big message sent first must not be overtaken by a small one.
    struct TwoSends;
    impl Node<Msg> for TwoSends {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            env.send(
                1,
                Msg {
                    payload: 0,
                    bytes: 1_250_000,
                },
            ); // 100 ms ser
            env.send(
                1,
                Msg {
                    payload: 1,
                    bytes: 125,
                },
            ); // ~0 ms ser
        }
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = two_node_sim(Box::new(TwoSends));
    sim.run(SimTime::from_secs(1));
    let recv = recorder_received(&sim);
    assert_eq!(recv.len(), 2);
    assert_eq!(recv[0].2, 0, "first-sent must arrive first");
    assert!(recv[0].0 <= recv[1].0);
}

#[test]
fn busy_nodes_queue_deliveries() {
    /// A receiver that takes 50 ms to process each message.
    struct Slow {
        processed_at: Vec<SimTime>,
    }
    impl Node<Msg> for Slow {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
            self.processed_at.push(env.now());
            env.busy(SimTime::from_millis(50));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
    sim.add_node(Box::new(Burst { count: 3, bytes: 0 }), Region::Paris);
    sim.add_node(
        Box::new(Slow {
            processed_at: Vec::new(),
        }),
        Region::Paris,
    );
    sim.run(SimTime::from_secs(1));
    let slow = sim.node(1).as_any().downcast_ref::<Slow>().unwrap();
    assert_eq!(slow.processed_at.len(), 3);
    // All arrive at 1 ms, but processing is serialized 50 ms apart.
    assert_eq!(slow.processed_at[0], SimTime::from_millis(1));
    assert_eq!(slow.processed_at[1], SimTime::from_millis(51));
    assert_eq!(slow.processed_at[2], SimTime::from_millis(101));
}

#[test]
fn probe_observes_queue_length() {
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
    sim.add_node(Box::new(Burst { count: 5, bytes: 0 }), Region::Paris);
    struct VerySlow;
    impl Node<Msg> for VerySlow {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
            env.busy(SimTime::from_secs(10));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.add_node(Box::new(VerySlow), Region::Paris);
    let mut max_queue = 0;
    sim.run_with_probe(SimTime::from_secs(5), SimTime::from_millis(100), |ctx| {
        max_queue = max_queue.max(ctx.queue_len(1));
        ControlFlow::Continue(())
    });
    // First message grabs the node for 10 s; the other 4 queue up.
    assert_eq!(max_queue, 4);
}

#[test]
fn probe_can_stop_the_run() {
    let mut sim = two_node_sim(Box::new(Burst { count: 1, bytes: 0 }));
    let report = sim.run_with_probe(SimTime::from_secs(10), SimTime::from_millis(1), |ctx| {
        if ctx.time() >= SimTime::from_millis(3) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert_eq!(report.end_time, SimTime::from_millis(3));
}

#[test]
fn bytes_are_accounted_by_kind() {
    let mut sim = two_node_sim(Box::new(Burst {
        count: 2,
        bytes: 100,
    }));
    sim.run(SimTime::from_secs(1));
    assert_eq!(sim.metrics().counter("net.bytes"), 200);
    assert_eq!(sim.metrics().counter("net.bytes.test"), 200);
    assert_eq!(sim.metrics().counter("net.messages"), 2);
}

#[test]
fn tap_does_not_perturb_the_schedule() {
    // A run with a counting tap attached must be byte-identical to the
    // same run without one — the oracle hook is a pure observer.
    struct Counting {
        delivers: u64,
        events: u64,
    }
    impl EventTap<Msg> for Counting {
        fn on_deliver(
            &mut self,
            _from: NodeId,
            _to: NodeId,
            _msg: &Msg,
            _ctx: &TapCtx<'_, Msg>,
        ) -> ControlFlow<()> {
            self.delivers += 1;
            ControlFlow::Continue(())
        }
        fn after_event(
            &mut self,
            _node: NodeId,
            _kind: TapKind,
            _ctx: &TapCtx<'_, Msg>,
        ) -> ControlFlow<()> {
            self.events += 1;
            ControlFlow::Continue(())
        }
    }
    let run = |with_tap: bool| {
        let mut sim = Simulation::new(
            NetworkConfig::uniform_all(SimTime::from_millis(5))
                .with_jitter(SimTime::from_millis(3)),
            7,
        )
        .with_faults(FaultPlan::none().with_loss(0.2).crash(
            0,
            SimTime::from_millis(30),
            Some(SimTime::from_millis(60)),
        ));
        sim.add_node(
            Box::new(Burst {
                count: 10,
                bytes: 10,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Sydney,
        );
        let report = if with_tap {
            let mut tap = Counting {
                delivers: 0,
                events: 0,
            };
            let report = sim.run_with_tap(SimTime::from_secs(1), &mut tap);
            assert_eq!(tap.events, report.events_processed);
            assert!(tap.delivers > 0 && tap.delivers <= 10);
            report
        } else {
            sim.run(SimTime::from_secs(1))
        };
        (recorder_received(&sim), report.events_processed)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn tap_break_stops_the_run_at_the_event() {
    struct StopAfter {
        left: u32,
    }
    impl EventTap<Msg> for StopAfter {
        fn after_event(
            &mut self,
            _node: NodeId,
            _kind: TapKind,
            _ctx: &TapCtx<'_, Msg>,
        ) -> ControlFlow<()> {
            if self.left == 0 {
                return ControlFlow::Break(());
            }
            self.left -= 1;
            ControlFlow::Continue(())
        }
    }
    let mut sim = two_node_sim(Box::new(Burst { count: 5, bytes: 0 }));
    let mut tap = StopAfter { left: 2 };
    let report = sim.run_with_tap(SimTime::from_secs(1), &mut tap);
    assert_eq!(report.events_processed, 3, "broke on the third event");
    // The remaining deliveries are still queued; resuming drains them.
    sim.run(SimTime::from_secs(1));
    assert_eq!(recorder_received(&sim).len(), 5);
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed| {
        let mut sim = Simulation::new(
            NetworkConfig::uniform_all(SimTime::from_millis(5))
                .with_jitter(SimTime::from_millis(3)),
            seed,
        );
        sim.add_node(
            Box::new(Burst {
                count: 10,
                bytes: 10,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Sydney,
        );
        sim.run(SimTime::from_secs(1));
        recorder_received(&sim)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn timers_fire_after_busy_offset() {
    struct TimerNode {
        fired_at: Option<SimTime>,
    }
    impl Node<Msg> for TimerNode {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            env.busy(SimTime::from_millis(10));
            env.set_timer(SimTime::from_millis(5), 42);
        }
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn on_timer(&mut self, env: &mut dyn Env<Msg>, tag: u64) {
            assert_eq!(tag, 42);
            self.fired_at = Some(env.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::ZERO), 1);
    sim.add_node(Box::new(TimerNode { fired_at: None }), Region::Paris);
    sim.run(SimTime::from_secs(1));
    let node = sim.node(0).as_any().downcast_ref::<TimerNode>().unwrap();
    assert_eq!(node.fired_at, Some(SimTime::from_millis(15)));
}

#[test]
fn run_stops_at_max_time() {
    let mut sim = two_node_sim(Box::new(Burst { count: 1, bytes: 0 }));
    let report = sim.run(SimTime::from_millis(2));
    assert_eq!(report.end_time, SimTime::from_millis(2));
    // Delivery at 10 ms never happened.
    assert!(recorder_received(&sim).is_empty());
}

#[test]
fn compute_multiplier_scales_busy_time() {
    struct Slow {
        processed_at: Vec<SimTime>,
    }
    impl Node<Msg> for Slow {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {
            self.processed_at.push(env.now());
            env.busy(SimTime::from_millis(50));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let run = |mul: Option<u64>| {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
        if let Some(mul) = mul {
            sim = sim.with_availability(AvailabilityPlan::none().compute_speed(1, mul));
        }
        sim.add_node(Box::new(Burst { count: 3, bytes: 0 }), Region::Paris);
        sim.add_node(
            Box::new(Slow {
                processed_at: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(10));
        sim.node(1)
            .as_any()
            .downcast_ref::<Slow>()
            .unwrap()
            .processed_at
            .clone()
    };
    // Half-speed tier: 50 ms of work costs 100 ms of virtual time.
    let slow = run(Some(2000));
    assert_eq!(slow[1], SimTime::from_millis(101));
    assert_eq!(slow[2], SimTime::from_millis(201));
    // Double-speed tier: 50 ms of work costs 25 ms.
    let fast = run(Some(500));
    assert_eq!(fast[1], SimTime::from_millis(26));
    // The neutral tier is bit-identical to no plan at all.
    assert_eq!(run(Some(1000)), run(None));
}

#[test]
fn heap_and_wheel_schedulers_run_byte_identically() {
    let run = |kind: SchedulerKind| {
        let net = NetworkConfig::uniform_all(SimTime::from_millis(1))
            .with_jitter(SimTime::from_micros(500));
        let mut sim = Simulation::new(net, 7).with_scheduler(kind);
        sim.add_node(
            Box::new(Burst {
                count: 20,
                bytes: 10_000,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Sydney,
        );
        let report = sim.run(SimTime::from_secs(5));
        (report, recorder_received(&sim))
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
}

#[test]
fn flow_shared_links_split_trunk_bandwidth() {
    // 8 Mbps trunk, two concurrent 1 MB flows on the same region pair:
    // processor sharing finishes both at 2 s (per-message would say
    // 1 s each).
    let net = NetworkConfig::uniform_all(SimTime::ZERO)
        .with_bandwidth_bps(8_000_000)
        .with_flow_shared_links();
    let mut sim = Simulation::new(net, 1);
    sim.add_node(
        Box::new(Burst {
            count: 1,
            bytes: 1_000_000,
        }),
        Region::Paris,
    );
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Paris,
    );
    sim.add_node(
        Box::new(BurstTo {
            to: 1,
            count: 1,
            bytes: 1_000_000,
        }),
        Region::Paris,
    );
    sim.run(SimTime::from_secs(10));
    let recv = recorder_received(&sim);
    assert_eq!(recv.len(), 2);
    assert_eq!(recv[0].0, SimTime::from_secs(2));
    assert_eq!(recv[1].0, SimTime::from_secs(2));
}

#[test]
fn flow_shared_links_keep_per_pair_fifo() {
    // Two back-to-back 1 MB messages on one pair: the second queues
    // behind the first (one active flow per pair), so they arrive in
    // order at 1 s and 2 s.
    let net = NetworkConfig::uniform_all(SimTime::ZERO)
        .with_bandwidth_bps(8_000_000)
        .with_flow_shared_links();
    let mut sim = Simulation::new(net, 1);
    sim.add_node(
        Box::new(Burst {
            count: 2,
            bytes: 1_000_000,
        }),
        Region::Paris,
    );
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Paris,
    );
    sim.run(SimTime::from_secs(10));
    let recv = recorder_received(&sim);
    assert_eq!(recv.len(), 2);
    assert_eq!(recv[0].2, 0);
    assert_eq!(recv[0].0, SimTime::from_secs(1));
    assert_eq!(recv[1].2, 1);
    assert_eq!(recv[1].0, SimTime::from_secs(2));
}

#[test]
fn flow_shared_runs_are_deterministic_and_count_flows() {
    let run = || {
        let net = NetworkConfig::aws().with_flow_shared_links();
        let mut sim = Simulation::new(net, 9);
        sim.add_node(
            Box::new(Burst {
                count: 10,
                bytes: 250_000,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::California,
        );
        sim.add_node(
            Box::new(BurstTo {
                to: 1,
                count: 10,
                bytes: 250_000,
            }),
            Region::Paris,
        );
        let report = sim.run(SimTime::from_secs(60));
        let gauge = sim.metrics().gauge("sim.flows.active");
        (report, recorder_received(&sim), gauge)
    };
    let (report, recv, gauge) = run();
    assert_eq!(recv.len(), 20);
    // All flows drained by the end of the run.
    assert_eq!(gauge, Some(0.0));
    assert_eq!((report, recv, gauge), run());
}

/// Sends one message of `bytes` to node 0 at virtual time `at`.
struct SendAt {
    at: SimTime,
    bytes: usize,
    payload: u32,
}

impl Node<Msg> for SendAt {
    fn on_start(&mut self, env: &mut dyn Env<Msg>) {
        env.set_timer(self.at, 0);
    }
    fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
    fn on_timer(&mut self, env: &mut dyn Env<Msg>, _tag: u64) {
        let (payload, bytes) = (self.payload, self.bytes);
        env.send(0, Msg { payload, bytes });
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Flow `i` of `joins` is message `i`, `joins[i].1` bytes sent at
/// `joins[i].0` µs by its own node, all on one Paris → Paris trunk of
/// `bps` with no propagation latency. Returns what node 0 received, in
/// delivery order, as `(time, payload)`.
fn flow_shared_deliveries(bps: u64, joins: &[(u64, usize)]) -> Vec<(SimTime, u32)> {
    let net = NetworkConfig::uniform_all(SimTime::ZERO)
        .with_bandwidth_bps(bps)
        .with_flow_shared_links();
    let mut sim = Simulation::new(net, 5);
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Paris,
    );
    for (payload, &(at, bytes)) in (0..).zip(joins) {
        let at = SimTime::from_micros(at);
        sim.add_node(Box::new(SendAt { at, bytes, payload }), Region::Paris);
    }
    sim.run(SimTime::from_secs(3_600));
    let recorder = sim.node(0).as_any().downcast_ref::<Recorder>().unwrap();
    recorder
        .received
        .iter()
        .map(|&(at, _, payload)| (at, payload))
        .collect()
}

/// The same trunk under the per-flow arithmetic: every flow keeps its own
/// remaining work, a settle floors `elapsed * bps / n` off each of them,
/// and a re-plan scans them for the least. Every send is scheduled before
/// any completion is, so at one instant the joins go first, in payload
/// order.
fn per_flow_reference(bps: u64, joins: &[(u64, usize)]) -> Vec<(SimTime, u32)> {
    let mut order: Vec<u32> = (0..).take(joins.len()).collect();
    order.sort_by_key(|&i| joins[i as usize].0);
    let mut order = order.into_iter().peekable();
    let (bps, mut last) = (u128::from(bps), 0u64);
    let mut flows: Vec<(u32, u128)> = Vec::new();
    let mut tick: Option<u64> = None;
    let mut out = Vec::new();
    loop {
        let join = order.peek().map(|&i| joins[i as usize].0);
        let (now, joining) = match (join, tick) {
            (Some(j), Some(t)) if t < j => (t, false),
            (Some(j), _) => (j, true),
            (None, Some(t)) => (t, false),
            (None, None) => return out,
        };
        if now > last && !flows.is_empty() {
            let drain = u128::from(now - last) * bps / flows.len() as u128;
            for (_, remaining) in &mut flows {
                *remaining = remaining.saturating_sub(drain);
            }
        }
        last = now;
        if joining {
            let i = order.next().expect("peeked");
            let work = (joins[i as usize].1 as u128 * 8 * 1_000_000).max(1);
            flows.push((i, work));
        } else {
            for &(i, _) in flows.iter().filter(|f| f.1 == 0) {
                out.push((SimTime::from_micros(now), i));
            }
            flows.retain(|f| f.1 != 0);
        }
        tick = flows.iter().map(|f| f.1).min().map(|least| {
            let dt = (least * flows.len() as u128).div_ceil(bps).max(1);
            now + u64::try_from(dt).expect("tick fits")
        });
    }
}

#[test]
fn flow_shared_deliveries_match_per_flow_arithmetic() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let check = |what: &str, bps: u64, joins: &[(u64, usize)]| {
        let want = per_flow_reference(bps, joins);
        assert_eq!(want.len(), joins.len(), "{what}: the reference lost a flow");
        assert_eq!(
            flow_shared_deliveries(bps, joins),
            want,
            "{what}: {joins:?}"
        );
        want
    };
    // Equal flows joining together finish at one tick and leave in join
    // order; so do a zero-byte flow and a flow whose remainder the first
    // completion leaves at zero.
    let same = check(
        "equal flows",
        8_000_000,
        &[(0, 1_000), (0, 1_000), (0, 1_000)],
    );
    assert!(same.iter().all(|&(at, _)| at == same[0].0));
    check(
        "zero bytes",
        8_000_000,
        &[(0, 0), (0, 0), (10, 500), (10, 0)],
    );
    check("late equal finish", 8_000_000, &[(0, 2_000), (1_000, 500)]);
    for seed in 0..128 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Odd rates leave floor residue in every settle; at a few hundred
        // bits per second against tiny messages that residue moves ticks.
        let (bps, max_bytes) = match seed % 2 {
            0 => (rng.gen_range(1_000_000..50_000_000u64) | 1, 20_000),
            _ => (rng.gen_range(100..5_000u64) | 1, 64),
        };
        let n = rng.gen_range(1..=24usize);
        let instants: Vec<u64> = (0..4).map(|_| rng.gen_range(0..100_000)).collect();
        let mut joins: Vec<(u64, usize)> = (0..n)
            .map(|_| {
                // Some joins share an instant with another.
                let at = match rng.gen_range(0..3) {
                    0 => instants[rng.gen_range(0..instants.len())],
                    _ => rng.gen_range(0..200_000),
                };
                let bytes = match rng.gen_range(0..8) {
                    0 => 0,
                    _ => rng.gen_range(1..max_bytes),
                };
                (at, bytes)
            })
            .collect();
        let done = check(&format!("seed {seed}"), bps, &joins);
        // A join at one of those completion instants goes first and
        // settles the finishing flow to zero before its tick.
        let (at, _) = done[rng.gen_range(0..done.len())];
        joins.push((at.as_micros(), rng.gen_range(0..max_bytes)));
        check(&format!("seed {seed}, join at {at}"), bps, &joins);
    }
}
