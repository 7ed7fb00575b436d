//! Faults and absences end to end: the drop rules and their order,
//! crashes, offline windows and how the two nest, and Byzantine senders.

mod common;

use std::any::Any;
use std::ops::ControlFlow;

use common::{recorder_received, two_node_sim, Burst, Msg, Recorder};
use spyker_simnet::{
    AvailabilityPlan, Env, EventTap, FaultPlan, NetworkConfig, Node, NodeId, Region, SimTime,
    Simulation, TapCtx, TapKind, WireSize,
};

#[test]
fn scripted_nth_drop_removes_exactly_one_message() {
    let mut sim = two_node_sim(Box::new(Burst { count: 5, bytes: 0 }))
        .with_faults(FaultPlan::none().drop_nth(0, 1, 2));
    sim.run(SimTime::from_secs(1));
    let payloads: Vec<u32> = recorder_received(&sim).iter().map(|r| r.2).collect();
    assert_eq!(payloads, vec![0, 1, 3, 4]);
    assert_eq!(sim.metrics().counter("fault.dropped"), 1);
    assert_eq!(sim.metrics().counter("fault.dropped.scripted"), 1);
}

#[test]
fn link_window_drops_only_inside_the_window() {
    // Sender fires one message per 10 ms via timers.
    struct Periodic {
        left: u32,
    }
    impl Node<Msg> for Periodic {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            env.set_timer(SimTime::from_millis(10), 0);
        }
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn on_timer(&mut self, env: &mut dyn Env<Msg>, _tag: u64) {
            env.send(
                1,
                Msg {
                    payload: self.left,
                    bytes: 0,
                },
            );
            self.left -= 1;
            if self.left > 0 {
                env.set_timer(SimTime::from_millis(10), 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    // Sends at 10..=60 ms; window [25 ms, 45 ms) kills 30 and 40 ms.
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1)
        .with_faults(FaultPlan::none().drop_link_window(
            0,
            1,
            SimTime::from_millis(25),
            SimTime::from_millis(45),
        ));
    sim.add_node(Box::new(Periodic { left: 6 }), Region::Paris);
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Paris,
    );
    sim.run(SimTime::from_secs(1));
    assert_eq!(recorder_received(&sim).len(), 4);
    assert_eq!(sim.metrics().counter("fault.dropped"), 2);
}

#[test]
fn probabilistic_loss_is_seeded_and_reproducible() {
    let run = |seed| {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), seed)
            .with_faults(FaultPlan::none().with_loss(0.5));
        sim.add_node(
            Box::new(Burst {
                count: 100,
                bytes: 0,
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(Recorder {
                received: Vec::new(),
            }),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(1));
        (
            recorder_received(&sim),
            sim.metrics().counter("fault.dropped"),
        )
    };
    let (recv_a, dropped_a) = run(11);
    let (recv_b, dropped_b) = run(11);
    assert_eq!(recv_a, recv_b, "same seed must drop the same messages");
    assert_eq!(dropped_a, dropped_b);
    assert!(
        dropped_a > 20 && dropped_a < 80,
        "p=0.5 of 100: {dropped_a}"
    );
    let (recv_c, _) = run(12);
    assert_ne!(recv_a, recv_c, "different seed, different drops");
}

#[test]
fn partition_cuts_both_directions_and_heals() {
    // Two nodes in different regions ping-pong; a partition window
    // swallows the ball, after healing nothing moves (the protocol has
    // no retry), so delivered count freezes at the pre-partition value.
    struct PingPong;
    impl Node<Msg> for PingPong {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            if env.me() == 0 {
                env.send(
                    1,
                    Msg {
                        payload: 0,
                        bytes: 0,
                    },
                );
            }
        }
        fn on_message(&mut self, env: &mut dyn Env<Msg>, from: NodeId, msg: Msg) {
            env.send(
                from,
                Msg {
                    payload: msg.payload + 1,
                    bytes: 0,
                },
            );
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let run = |plan: FaultPlan| {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1)
            .with_faults(plan);
        sim.add_node(Box::new(PingPong), Region::Paris);
        sim.add_node(Box::new(PingPong), Region::Sydney);
        sim.run(SimTime::from_secs(1));
        (
            sim.metrics().counter("net.messages"),
            sim.metrics().counter("fault.dropped.partition"),
        )
    };
    let (free_msgs, _) = run(FaultPlan::none());
    let (cut_msgs, cut_drops) = run(FaultPlan::none().partition(
        Region::Paris,
        Region::Sydney,
        SimTime::from_millis(100),
        SimTime::from_millis(200),
    ));
    assert_eq!(cut_drops, 1, "exactly the in-window send is dropped");
    assert!(cut_msgs < free_msgs, "partition must stop the ping-pong");
}

#[test]
fn a_send_matching_several_drop_rules_is_counted_under_the_first() {
    // Node 0 (Paris) sends to node 1 (Sydney) at 10, 20, 30, 40 and
    // 50 ms and then to node 2 (Paris) every 10 ms from 60 ms over a
    // link that loses half its messages. On 0 -> 1 the rules nest:
    // the 1st message is dropped by nth, [0, 15) by window, [0, 35) by
    // conn, [0, 45) by partition, and everything by loss.
    let ms = SimTime::from_millis;
    let lossy: Vec<SimTime> = (6..22).map(|i| ms(10 * i)).collect();
    let run = |cut: &[SimTime]| {
        let plan = FaultPlan::none()
            .drop_nth(0, 1, 1)
            .drop_link_window(0, 1, ms(0), ms(15))
            .conn_drop(0, 1, ms(0), ms(35))
            .partition(Region::Paris, Region::Sydney, ms(0), ms(45))
            .with_link_loss(0, 1, 1.0)
            .with_link_loss(0, 2, 0.5);
        let mut sim = Simulation::new(NetworkConfig::uniform_all(ms(1)), 3).with_faults(plan);
        struct Script(Vec<(SimTime, NodeId)>);
        impl Node<Msg> for Script {
            fn on_start(&mut self, env: &mut dyn Env<Msg>) {
                for (i, &(t, _)) in self.0.iter().enumerate() {
                    env.set_timer(t, i as u64);
                }
            }
            fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
            fn on_timer(&mut self, env: &mut dyn Env<Msg>, tag: u64) {
                let msg = Msg {
                    payload: tag as u32,
                    bytes: 0,
                };
                env.send(self.0[tag as usize].1, msg);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let script = cut
            .iter()
            .map(|&t| (t, 1))
            .chain(lossy.iter().map(|&t| (t, 2)))
            .collect();
        sim.add_node(Box::new(Script(script)), Region::Paris);
        for region in [Region::Sydney, Region::Paris] {
            let recorder = Recorder {
                received: Vec::new(),
            };
            sim.add_node(Box::new(recorder), region);
        }
        sim.run(SimTime::from_secs(1));
        let m = sim.metrics();
        let causes = ["scripted", "conn", "partition", "loss"]
            .map(|c| m.counter(&format!("fault.dropped.{c}")));
        let kept: Vec<SimTime> = sim
            .node(2)
            .as_any()
            .downcast_ref::<Recorder>()
            .unwrap()
            .received
            .iter()
            .map(|r| r.0)
            .collect();
        (causes, kept)
    };
    let (causes, kept) = run(&[ms(10), ms(20), ms(30), ms(40), ms(50)]);
    // 10 ms: window (nth counted it as message 0), 20 ms: nth, 30 ms:
    // conn, 40 ms: partition, 50 ms: loss — plus the lossy link's.
    let lost = (lossy.len() - kept.len()) as u64;
    assert_eq!(causes, [2, 1, 1, 1 + lost]);
    assert!(
        !kept.is_empty() && lost > 0,
        "the lossy link must both drop and deliver"
    );
    // Only the loss rule draws: without the four sends it never
    // reached, the lossy link keeps exactly the same messages.
    let (alone, kept_alone) = run(&[ms(50)]);
    assert_eq!(alone, [0, 0, 0, 1 + lost]);
    assert_eq!(kept_alone, kept);
}

#[test]
fn crashed_node_discards_inbox_and_restart_hook_runs() {
    struct Reviver {
        restarts: u32,
    }
    impl Node<Msg> for Reviver {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
            self.restarts += 1;
            env.send(
                0,
                Msg {
                    payload: 99,
                    bytes: 0,
                },
            );
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    // Node 0 sends to node 1 at t=0 (delivered ~10 ms, while node 1 is
    // down) — discarded. Node 1 restarts at 50 ms and pings back.
    let mut sim =
        Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1).with_faults(
            FaultPlan::none().crash(1, SimTime::from_millis(1), Some(SimTime::from_millis(50))),
        );
    sim.add_node(Box::new(Burst { count: 1, bytes: 0 }), Region::Paris);
    sim.add_node(Box::new(Reviver { restarts: 0 }), Region::Paris);
    sim.run(SimTime::from_secs(1));
    assert_eq!(sim.metrics().counter("fault.crashes"), 1);
    assert_eq!(sim.metrics().counter("fault.restarts"), 1);
    assert_eq!(sim.metrics().counter("fault.discarded"), 1);
    let reviver = sim.node(1).as_any().downcast_ref::<Reviver>().unwrap();
    assert_eq!(reviver.restarts, 1);
    // The revival ping was sent after restart and delivered normally.
    assert_eq!(sim.metrics().counter("net.messages"), 2);
}

#[test]
fn crash_without_restart_silences_a_node_forever() {
    let mut sim = two_node_sim(Box::new(Burst { count: 3, bytes: 0 }))
        .with_faults(FaultPlan::none().crash(1, SimTime::from_millis(5), None));
    sim.run(SimTime::from_secs(1));
    assert!(recorder_received(&sim).is_empty());
    assert_eq!(sim.metrics().counter("fault.discarded"), 3);
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    let run = |with_plan: bool| {
        let mut sim = Simulation::new(
            NetworkConfig::uniform_all(SimTime::from_millis(5))
                .with_jitter(SimTime::from_millis(3)),
            7,
        );
        if with_plan {
            sim = sim.with_faults(FaultPlan::none());
        }
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
        let report = sim.run(SimTime::from_secs(1));
        (recorder_received(&sim), report.events_processed)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn offline_window_discards_inbox_and_online_hook_runs() {
    struct Reviver {
        restarts: u32,
    }
    impl Node<Msg> for Reviver {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
            self.restarts += 1;
            env.send(
                0,
                Msg {
                    payload: 99,
                    bytes: 0,
                },
            );
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    // Node 0 sends to node 1 at t=0 (delivered ~10 ms, inside node 1's
    // offline window) — discarded under the availability namespace, not
    // the fault one. At 50 ms the window closes and node 1 pings back.
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1)
        .with_availability(AvailabilityPlan::none().offline_window(
            1,
            SimTime::from_millis(1),
            SimTime::from_millis(50),
        ));
    sim.add_node(Box::new(Burst { count: 1, bytes: 0 }), Region::Paris);
    sim.add_node(Box::new(Reviver { restarts: 0 }), Region::Paris);
    sim.run(SimTime::from_secs(1));
    assert_eq!(sim.metrics().counter("sim.availability.offline"), 1);
    assert_eq!(sim.metrics().counter("sim.availability.online"), 1);
    assert_eq!(sim.metrics().counter("sim.availability.discarded"), 1);
    assert_eq!(sim.metrics().counter("fault.discarded"), 0);
    assert_eq!(sim.metrics().counter("fault.crashes"), 0);
    let reviver = sim.node(1).as_any().downcast_ref::<Reviver>().unwrap();
    assert_eq!(reviver.restarts, 1);
    assert_eq!(sim.metrics().counter("net.messages"), 2);
}

#[test]
fn empty_availability_plan_is_byte_identical_to_no_plan() {
    let run = |with_plan: bool| {
        let mut sim = Simulation::new(
            NetworkConfig::uniform_all(SimTime::from_millis(5))
                .with_jitter(SimTime::from_millis(3)),
            7,
        );
        if with_plan {
            sim = sim.with_availability(AvailabilityPlan::none());
        }
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
        let report = sim.run(SimTime::from_secs(1));
        (recorder_received(&sim), report.events_processed)
    };
    assert_eq!(run(true), run(false));
}

/// Sends one message to node 0 at each of `at` (via timers).
struct SendAt {
    at: Vec<SimTime>,
}

impl Node<Msg> for SendAt {
    fn on_start(&mut self, env: &mut dyn Env<Msg>) {
        for (i, &t) in self.at.iter().enumerate() {
            env.set_timer(t, i as u64);
        }
    }
    fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
    fn on_timer(&mut self, env: &mut dyn Env<Msg>, tag: u64) {
        env.send(
            0,
            Msg {
                payload: tag as u32,
                bytes: 0,
            },
        );
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records every event node 0 goes through, as the tap reports it.
struct KindLog(Vec<(SimTime, TapKind)>);

impl EventTap<Msg> for KindLog {
    fn after_event(
        &mut self,
        node: NodeId,
        kind: TapKind,
        ctx: &TapCtx<'_, Msg>,
    ) -> ControlFlow<()> {
        if node == 0 {
            self.0.push((ctx.time(), kind));
        }
        ControlFlow::Continue(())
    }
}

#[test]
fn restart_inside_an_offline_window_defers_the_hook_to_online() {
    struct Reviver {
        restarts: Vec<SimTime>,
    }
    impl Node<Msg> for Reviver {
        fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
        fn on_message(&mut self, _e: &mut dyn Env<Msg>, _f: NodeId, _m: Msg) {}
        fn on_restart(&mut self, env: &mut dyn Env<Msg>) {
            self.restarts.push(env.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let ms = SimTime::from_millis;
    use TapKind::*;
    // Both nestings of a crash and an offline window over 5–40 ms.
    // Whichever absence ends last runs the single on_restart, at 40 ms.
    // Deliveries land at 7, 15, 30 and 45 ms; while the node is down
    // `fault.discarded` wins over the offline discard.
    let cases = [
        (
            "crash inside an offline window",
            (ms(10), ms(20)),
            (ms(5), ms(40)),
            vec![
                (ms(0), Start),
                (ms(5), Offline),
                (ms(7), OfflineDiscarded),
                (ms(10), Crash),
                (ms(15), Discarded),
                (ms(20), Restart),
                (ms(30), OfflineDiscarded),
                (ms(40), Online),
                (ms(45), Deliver),
            ],
            (1, 2),
        ),
        (
            "an offline window inside a crash",
            (ms(5), ms(40)),
            (ms(10), ms(20)),
            vec![
                (ms(0), Start),
                (ms(5), Crash),
                (ms(7), Discarded),
                (ms(10), Offline),
                (ms(15), Discarded),
                (ms(20), Online),
                (ms(30), Discarded),
                (ms(40), Restart),
                (ms(45), Deliver),
            ],
            (3, 0),
        ),
    ];
    for (name, (crash, restart), (off, on), want, (fault_discards, offline_discards)) in cases {
        let mut sim = Simulation::new(NetworkConfig::uniform_all(ms(1)), 1)
            .with_faults(FaultPlan::none().crash(0, crash, Some(restart)))
            .with_availability(AvailabilityPlan::none().offline_window(0, off, on));
        sim.add_node(
            Box::new(Reviver {
                restarts: Vec::new(),
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(SendAt {
                at: vec![ms(6), ms(14), ms(29), ms(44)],
            }),
            Region::Paris,
        );
        let mut log = KindLog(Vec::new());
        sim.run_with_tap(SimTime::from_secs(1), &mut log);
        let reviver = sim.node(0).as_any().downcast_ref::<Reviver>().unwrap();
        assert_eq!(reviver.restarts, vec![ms(40)], "{name}");
        assert_eq!(log.0, want, "{name}");
        let m = sim.metrics();
        assert_eq!(m.counter("fault.discarded"), fault_discards, "{name}");
        assert_eq!(
            m.counter("sim.availability.discarded"),
            offline_discards,
            "{name}"
        );
    }
}

#[test]
fn an_absence_discards_what_waited_for_the_busy_node() {
    /// Busy for 100 ms from the start; records what it handles.
    struct BusyAtStart {
        received: Vec<(SimTime, u32)>,
    }
    impl Node<Msg> for BusyAtStart {
        fn on_start(&mut self, env: &mut dyn Env<Msg>) {
            env.busy(SimTime::from_millis(100));
        }
        fn on_message(&mut self, env: &mut dyn Env<Msg>, _f: NodeId, msg: Msg) {
            self.received.push((env.now(), msg.payload));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let ms = SimTime::from_millis;
    use TapKind::*;
    // m0 and m1 reach node 0 at 40.1 and 50.1 ms and wait for its busy
    // time to end at 100 ms. The node is absent over 70–75 ms, which loses
    // them: only m2, arriving at 80.1 ms, is handled. Both losses are
    // reported at 70 ms, while the node is absent.
    let after_absence = |(leave, discard, back)| {
        vec![
            (ms(0), Start),
            (ms(70), leave),
            (ms(70), discard),
            (ms(70), discard),
            (ms(75), back),
            (SimTime::from_micros(80_100), Deliver),
        ]
    };
    let crash = FaultPlan::none().crash(0, ms(70), Some(ms(75)));
    let offline = AvailabilityPlan::none().offline_window(0, ms(70), ms(75));
    let cases = [
        (
            Simulation::new(NetworkConfig::uniform_all(SimTime::from_micros(100)), 1)
                .with_faults(crash),
            "fault.discarded",
            after_absence((Crash, Discarded, Restart)),
        ),
        (
            Simulation::new(NetworkConfig::uniform_all(SimTime::from_micros(100)), 1)
                .with_availability(offline),
            "sim.availability.discarded",
            after_absence((Offline, OfflineDiscarded, Online)),
        ),
    ];
    for (mut sim, counter, want) in cases {
        sim.add_node(
            Box::new(BusyAtStart {
                received: Vec::new(),
            }),
            Region::Paris,
        );
        sim.add_node(
            Box::new(SendAt {
                at: vec![ms(40), ms(50), ms(80)],
            }),
            Region::Paris,
        );
        let mut log = KindLog(Vec::new());
        sim.run_with_tap(SimTime::from_secs(1), &mut log);
        let node = sim.node(0).as_any().downcast_ref::<BusyAtStart>();
        let handled = &node.unwrap().received;
        assert_eq!(handled, &[(SimTime::from_micros(80_100), 2)], "{counter}");
        assert_eq!(sim.metrics().counter(counter), 2, "{counter}");
        assert_eq!(log.0, want, "{counter}");
    }
}

#[test]
#[should_panic(expected = "overlapping offline windows")]
fn overlapping_windows_for_one_node_are_rejected() {
    let _ = Simulation::<Msg>::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1)
        .with_availability(
            AvailabilityPlan::none()
                .offline_window(0, SimTime::ZERO, SimTime::from_secs(2))
                .offline_window(0, SimTime::from_secs(1), SimTime::from_secs(3)),
        );
}

/// A message carrying a model payload that opts into Byzantine
/// corruption the same way `FlMsg::ClientUpdate` does.
#[derive(Debug, Clone)]
struct PoisonMsg {
    vals: Vec<f32>,
}

impl WireSize for PoisonMsg {
    fn wire_size(&self) -> usize {
        self.vals.len() * 4
    }
    fn corrupt(
        &mut self,
        attack: &spyker_simnet::fault::ByzantineAttack,
        draw: &mut dyn FnMut() -> f64,
    ) -> bool {
        use spyker_simnet::fault::ByzantineAttack as A;
        match attack {
            A::SignFlip => self.vals.iter_mut().for_each(|v| *v = -*v),
            A::Scale { factor } => self.vals.iter_mut().for_each(|v| *v *= factor),
            A::GaussianNoise { sigma } => self
                .vals
                .iter_mut()
                .for_each(|v| *v += sigma * (draw() - 0.5) as f32),
            A::NanInject { prob } => {
                let mut hit = false;
                for v in &mut self.vals {
                    if draw() < *prob {
                        *v = f32::NAN;
                        hit = true;
                    }
                }
                return hit;
            }
        }
        true
    }
}

struct PoisonRecorder {
    received: Vec<Vec<f32>>,
}

impl Node<PoisonMsg> for PoisonRecorder {
    fn on_start(&mut self, _env: &mut dyn Env<PoisonMsg>) {}
    fn on_message(&mut self, _env: &mut dyn Env<PoisonMsg>, _from: NodeId, msg: PoisonMsg) {
        self.received.push(msg.vals);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct PoisonSender;

impl Node<PoisonMsg> for PoisonSender {
    fn on_start(&mut self, env: &mut dyn Env<PoisonMsg>) {
        env.send(
            1,
            PoisonMsg {
                vals: vec![1.0, -2.0, 3.0],
            },
        );
    }
    fn on_message(&mut self, _e: &mut dyn Env<PoisonMsg>, _f: NodeId, _m: PoisonMsg) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn poison_sim(plan: FaultPlan) -> Simulation<PoisonMsg> {
    let mut sim =
        Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1).with_faults(plan);
    sim.add_node(Box::new(PoisonSender), Region::Paris);
    sim.add_node(
        Box::new(PoisonRecorder {
            received: Vec::new(),
        }),
        Region::Sydney,
    );
    sim
}

fn poison_received(sim: &Simulation<PoisonMsg>) -> Vec<Vec<f32>> {
    sim.node(1)
        .as_any()
        .downcast_ref::<PoisonRecorder>()
        .unwrap()
        .received
        .clone()
}

#[test]
fn byzantine_sender_corrupts_payload_and_is_counted() {
    use spyker_simnet::fault::ByzantineAttack;
    let mut sim = poison_sim(FaultPlan::none().byzantine(0, ByzantineAttack::SignFlip));
    sim.run(SimTime::from_secs(1));
    assert_eq!(poison_received(&sim), vec![vec![-1.0, 2.0, -3.0]]);
    assert_eq!(sim.metrics().counter("fault.byzantine"), 1);
    assert_eq!(sim.metrics().counter("fault.byzantine.signflip"), 1);
}

#[test]
fn honest_sender_with_byzantine_peer_in_plan_is_untouched() {
    use spyker_simnet::fault::ByzantineAttack;
    // Node 1 (the recorder) is Byzantine, node 0 (the sender) is not:
    // the payload must arrive unmodified and no counter must move.
    let mut sim = poison_sim(FaultPlan::none().byzantine(1, ByzantineAttack::SignFlip));
    sim.run(SimTime::from_secs(1));
    assert_eq!(poison_received(&sim), vec![vec![1.0, -2.0, 3.0]]);
    assert_eq!(sim.metrics().counter("fault.byzantine"), 0);
}

#[test]
fn messages_without_model_payload_resist_corruption() {
    use spyker_simnet::fault::ByzantineAttack;
    // `Msg` keeps the default no-op `corrupt`, so marking its sender
    // Byzantine must neither alter delivery nor count an injection.
    let mut sim = two_node_sim(Box::new(Burst { count: 3, bytes: 8 }));
    sim = sim.with_faults(FaultPlan::none().byzantine(0, ByzantineAttack::SignFlip));
    sim.run(SimTime::from_secs(1));
    assert_eq!(recorder_received(&sim).len(), 3);
    assert_eq!(sim.metrics().counter("fault.byzantine"), 0);
}

#[test]
fn randomized_byzantine_attacks_are_bit_reproducible() {
    use spyker_simnet::fault::ByzantineAttack;
    let run = || {
        let mut sim = poison_sim(
            FaultPlan::none().byzantine(0, ByzantineAttack::GaussianNoise { sigma: 0.25 }),
        );
        sim.run(SimTime::from_secs(1));
        poison_received(&sim)
    };
    let a = run();
    assert_eq!(a, run());
    assert!(a[0].iter().zip([1.0, -2.0, 3.0]).any(|(v, o)| *v != o));
}
