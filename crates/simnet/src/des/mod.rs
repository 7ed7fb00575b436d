//! The discrete-event simulation engine: the clock, the RNG streams and
//! the event queue underneath, and above them a loop that pops the next
//! ready event and matches on its body once. Its parts: `queue` (events,
//! the two [`SchedulerKind`]s, per-node state, deferral behind a busy
//! node), `env` (the handler's environment), `absence` (crash and offline
//! windows), `flow` (flow-shared links); this file holds the per-send
//! path, the probe and tap views, the builder and the run loop.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::avail::AvailabilityPlan;
use crate::fault::FaultPlan;
use crate::metrics::Metrics;
use crate::net::{LinkModel, NetworkConfig, Region};
use crate::pairmap::PairMap;
use crate::pending::{Job, JobHandle, Pending};
use crate::runtime::{Node, NodeId, WireSize};
use crate::time::SimTime;

mod absence;
mod env;
mod flow;
mod queue;

use absence::Absence;
use flow::FlowNet;
pub use queue::SchedulerKind;
pub(crate) use queue::{Event, EventBody, Input};
use queue::{EventQueue, NodeState};

struct Core<M> {
    queue: EventQueue<M>,
    /// Indexed by node id.
    state: Vec<NodeState<M>>,
    metrics: Metrics,
    net: NetworkConfig,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    faults: FaultPlan,
    /// Dedicated RNG stream for probabilistic drops, so fault draws never
    /// perturb the jitter stream and an empty plan draws nothing.
    fault_rng: StdRng,
    /// Availability schedule (offline windows + compute tiers).
    availability: AvailabilityPlan,
    /// Per-link FIFO release time: a message never overtakes an earlier
    /// one on the same `(src, dst)` pair.
    link_free: PairMap<SimTime>,
    /// Per-link send counters, maintained only while the plan contains
    /// `NthOnLink` drops.
    link_sends: PairMap<u64>,
    /// Flow-shared bandwidth state.
    flow: FlowNet<M>,
}

impl<M: WireSize> Core<M> {
    fn schedule_send(&mut self, at: SimTime, from: NodeId, to: NodeId, mut msg: M) {
        // Byzantine senders corrupt their payload before it hits the wire;
        // the attack is cloned out so the RNG closure can borrow `self`'s
        // fault stream. Honest senders take no draw at all.
        if !self.faults.byzantine.is_empty() {
            if let Some(attack) = self.faults.attack_for(from).cloned() {
                let frng = &mut self.fault_rng;
                if msg.corrupt(&attack, &mut || frng.gen_range(0.0..1.0)) {
                    self.metrics.add_counter("fault.byzantine", 1);
                    self.metrics
                        .add_counter_suffixed("fault.byzantine.", attack.label(), 1);
                }
            }
        }
        let (bytes, kind) = (msg.wire_size(), msg.kind());
        self.route(at, from, to, bytes, kind, Input::Deliver { from, msg });
    }

    /// [`crate::runtime::Env::send_computed`]: the message travels as its
    /// job, booked and timed from its declared size, and settles when its
    /// delivery is handed over. A Byzantine sender's message settles here,
    /// so its corruption draws from the fault stream in send order.
    fn schedule_computed(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        kind: &'static str,
        job: Job<M>,
    ) -> JobHandle<M>
    where
        M: Send + 'static,
    {
        let pending = Pending::spawn(bytes, kind, job);
        let handle = pending.handle();
        if self.faults.attack_for(from).is_some() {
            self.schedule_send(at, from, to, pending.settle());
        } else {
            let delivery = Input::DeliverComputed { from, msg: pending };
            self.route(at, from, to, bytes, kind, delivery);
        }
        handle
    }

    /// Books a send of `bytes` under `kind` and carries `delivery` to `to`
    /// over the link, unless a fault drops it.
    fn route(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        kind: &'static str,
        delivery: Input<M>,
    ) {
        self.metrics.count_sent(kind, bytes as u64);
        let regions = (self.state[from].region, self.state[to].region);
        let (sends, rng) = (&mut self.link_sends, &mut self.fault_rng);
        if let Some(cause) = self.faults.drop_cause(at, from, to, regions, sends, rng) {
            self.metrics.count_dropped(cause, 1);
            return;
        }
        let mut latency = self.net.latency(regions.0, regions.1);
        if self.net.jitter_max > SimTime::ZERO {
            latency +=
                SimTime::from_micros(self.rng.gen_range(0..=self.net.jitter_max.as_micros()));
        }
        if self.net.link_model == LinkModel::FlowShared {
            self.flow_send(at, from, to, delivery, bytes, latency);
            return;
        }
        let delay = latency + self.net.serialization_delay(bytes);
        // FIFO per link: a message never overtakes an earlier one on the
        // same (src, dst) pair.
        let free = self.link_free.get_or_default(from, to);
        let time = (at + delay).max(*free);
        *free = time;
        self.push(time, to, EventBody::Input(delivery));
    }
}

/// Snapshot handed to the periodic probe callback during
/// [`Simulation::run_with_probe`].
///
/// The probe runs *outside* virtual time: evaluating a model here costs the
/// simulated system nothing, exactly like the paper's measurement harness.
pub struct ProbeCtx<'a, M> {
    time: SimTime,
    nodes: &'a [Box<dyn Node<M>>],
    state: &'a [NodeState<M>],
    metrics: &'a mut Metrics,
}

impl<M> ProbeCtx<'_, M> {
    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// All nodes; downcast via [`Node::as_any`] to inspect concrete state.
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        self.nodes
    }

    /// Number of messages that have arrived at `node` but are still waiting
    /// because the node is busy (paper Fig. 9's queue length).
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.state[node].inbox
    }

    /// The metrics collector, for recording probe-derived series.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}

/// What kind of event the simulation just processed, as reported to an
/// [`EventTap`] after the event's handler ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// A node's [`Node::on_start`] ran.
    Start,
    /// A message delivery was handed to [`Node::on_message`].
    Deliver,
    /// A timer fired ([`Node::on_timer`]).
    Timer,
    /// The node crashed (fault injection).
    Crash,
    /// The node restarted ([`Node::on_restart`] ran).
    Restart,
    /// An input that reached, or was waiting for, a crashed node was lost.
    Discarded,
    /// The node went offline (availability window opened).
    Offline,
    /// The node came back online ([`Node::on_restart`] ran, unless it is
    /// also crashed).
    Online,
    /// An input that reached, or was waiting for, an offline node was lost.
    OfflineDiscarded,
}

/// Read-only view of the simulation handed to an [`EventTap`].
///
/// Like [`ProbeCtx`], the tap runs *outside* virtual time: inspecting node
/// state here costs the simulated system nothing and consumes no random
/// draws, so an attached tap never perturbs the event schedule.
pub struct TapCtx<'a, M> {
    time: SimTime,
    nodes: &'a [Box<dyn Node<M>>],
    state: &'a [NodeState<M>],
    metrics: &'a Metrics,
}

impl<M> TapCtx<'_, M> {
    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// All nodes; downcast via [`Node::as_any`] to inspect concrete state.
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        self.nodes
    }

    /// Number of messages that have arrived at `node` but are still
    /// waiting because the node is busy.
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.state[node].inbox
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }
}

/// Observer invoked around every processed event — the hook protocol
/// invariant oracles attach to (see `spyker-simtest`).
///
/// Two kinds of event are not reported: flow ticks (trunk bookkeeping
/// under flow-shared links, not counted as processed either) and the
/// opening and closing of a connection-drop window (counted in
/// [`RunReport::events_processed`], but not a node event).
///
/// Both methods default to doing nothing, so an implementation only
/// overrides the granularity it needs. Returning [`ControlFlow::Break`]
/// stops the run at the current event; the tap implementation is expected
/// to remember *why* it broke (the simulation only reports the stop).
///
/// A tap only observes: it gets shared references, draws no randomness and
/// schedules nothing, so a run with a tap attached is byte-identical to the
/// same run without one (the `tap_does_not_perturb_the_schedule` test pins
/// this).
pub trait EventTap<M> {
    /// Called just before a delivery is dispatched to a live node, with the
    /// message still intact. Not called for deliveries that an absent node
    /// discards (those surface as [`TapKind::Discarded`] or
    /// [`TapKind::OfflineDiscarded`] in [`EventTap::after_event`]).
    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        ctx: &TapCtx<'_, M>,
    ) -> ControlFlow<()> {
        let _ = (from, to, msg, ctx);
        ControlFlow::Continue(())
    }

    /// Called after each event's handler ran (or the event was discarded).
    fn after_event(&mut self, node: NodeId, kind: TapKind, ctx: &TapCtx<'_, M>) -> ControlFlow<()> {
        let _ = (node, kind, ctx);
        ControlFlow::Continue(())
    }
}

/// The no-op tap [`Simulation::run_with_probe`] uses; never breaks.
pub struct NoTap;

impl<M> EventTap<M> for NoTap {}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events (starts, deliveries, timers) processed.
    pub events_processed: u64,
    /// Virtual time at which the run ended.
    pub end_time: SimTime,
}

/// A deterministic discrete-event simulation of one deployment.
///
/// Nodes are added with a region; [`Simulation::run`] (or
/// [`Simulation::run_with_probe`]) then delivers messages in virtual time
/// with the configured latency/bandwidth model, charging
/// [`crate::runtime::Env::busy`] time
/// against each node and queueing deliveries while a node is busy.
///
/// See the crate-level docs for a complete example.
pub struct Simulation<M> {
    nodes: Vec<Box<dyn Node<M>>>,
    core: Core<M>,
    started: bool,
    events_processed: u64,
}

impl<M: WireSize> Simulation<M> {
    /// Creates an empty simulation with the given network model and RNG
    /// seed. The seed drives the jitter draws and, through its own stream,
    /// the fault draws: probabilistic loss and Byzantine noise.
    pub fn new(net: NetworkConfig, seed: u64) -> Self {
        let mut metrics = Metrics::new();
        let flows_gauge = match net.link_model {
            LinkModel::PerMessage => None,
            LinkModel::FlowShared => metrics.gauge_handle("sim.flows.active"),
        };
        Self {
            nodes: Vec::new(),
            core: Core {
                queue: EventQueue::new(SchedulerKind::Wheel),
                state: Vec::new(),
                metrics,
                net,
                rng: StdRng::seed_from_u64(seed ^ 0x6c62_272e_07bb_0142),
                now: SimTime::ZERO,
                seq: 0,
                faults: FaultPlan::none(),
                fault_rng: StdRng::seed_from_u64(seed ^ 0x27d4_eb2f_1656_67c5),
                availability: AvailabilityPlan::none(),
                link_free: PairMap::new(),
                link_sends: PairMap::new(),
                flow: FlowNet::new(flows_gauge),
            },
            started: false,
            events_processed: 0,
        }
    }

    /// Selects the event-queue implementation (builder style; default
    /// [`SchedulerKind::Wheel`]). Both schedulers produce byte-identical
    /// runs — the heap exists as the frozen reference for equivalence
    /// tests and benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        assert!(
            !self.started,
            "scheduler must be chosen before the run starts"
        );
        self.core.queue = EventQueue::new(kind);
        self
    }

    /// Attaches a fault-injection plan (builder style). Must be called
    /// before the first [`Simulation::run`]; see [`FaultPlan`] for what can
    /// be injected. The default is [`FaultPlan::none`], which is
    /// byte-identical to a simulation without fault support.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        assert!(
            !self.started,
            "fault plan must be set before the run starts"
        );
        self.core.faults = plan;
        self
    }

    /// Attaches an availability schedule (builder style): offline windows
    /// and compute-speed multipliers, distinct from fault injection. Must
    /// be called before the first [`Simulation::run`]. The default is
    /// [`AvailabilityPlan::none`], which is byte-identical to a simulation
    /// without availability support.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, or if two offline
    /// windows of the same node overlap.
    pub fn with_availability(mut self, plan: AvailabilityPlan) -> Self {
        assert!(
            !self.started,
            "availability plan must be set before the run starts"
        );
        if let Some(node) = plan.overlapping_node() {
            panic!("overlapping offline windows for node {node}");
        }
        self.core.availability = plan;
        self
    }

    /// Adds a node in `region` and returns its id (ids are dense, in
    /// insertion order).
    pub fn add_node(&mut self, node: Box<dyn Node<M>>, region: Region) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.core.state.push(NodeState::new(region));
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &dyn Node<M> {
        self.nodes[id].as_ref()
    }

    /// All nodes, indexed by id (the slice [`EventTap`]s also see).
    pub fn nodes(&self) -> &[Box<dyn Node<M>>] {
        &self.nodes
    }

    /// Mutable access to a node between run segments.
    ///
    /// Intended for test harnesses that pause a run (probe break or
    /// `max_time`), mutate actor state directly — e.g. to inject an
    /// invariant violation — and resume. Mutating state a handler is
    /// relying on mid-protocol voids the determinism contract only if the
    /// mutation itself is non-deterministic; the simulation schedule is
    /// unaffected either way.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node<M> {
        self.nodes[id].as_mut()
    }

    /// Current virtual time (the time of the last processed event, or the
    /// `max_time`/probe time a paused run stopped at).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable access to the metrics (for harnesses that stamp run-level
    /// gauges — wall-clock throughput, peak RSS — onto the collector).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Consumes the simulation and returns the collected metrics.
    pub fn into_metrics(self) -> Metrics {
        self.core.metrics
    }

    /// Runs until `max_time` or until no events remain.
    pub fn run(&mut self, max_time: SimTime) -> RunReport {
        self.run_with_probe(max_time, SimTime::MAX, |_| ControlFlow::Continue(()))
    }

    /// Runs until `max_time`, no events remain, or the probe breaks.
    ///
    /// `probe` is invoked every `probe_interval` of virtual time (first at
    /// `probe_interval`), between events. Returning
    /// [`ControlFlow::Break`] stops the run at the probe time.
    pub fn run_with_probe(
        &mut self,
        max_time: SimTime,
        probe_interval: SimTime,
        probe: impl FnMut(&mut ProbeCtx<'_, M>) -> ControlFlow<()>,
    ) -> RunReport {
        self.run_with_probe_and_tap(max_time, probe_interval, probe, &mut NoTap)
    }

    /// Runs until `max_time`, no events remain, or `tap` breaks.
    ///
    /// Every processed event is reported to `tap` (see [`EventTap`]) except
    /// flow ticks and connection-drop window boundaries; a break stops the
    /// run at the current event's time.
    pub fn run_with_tap(&mut self, max_time: SimTime, tap: &mut dyn EventTap<M>) -> RunReport {
        self.run_with_probe_and_tap(max_time, SimTime::MAX, |_| ControlFlow::Continue(()), tap)
    }

    /// [`Simulation::run_with_probe`] with an [`EventTap`] attached.
    ///
    /// The tap observes every event (probes stay periodic); either the
    /// probe or the tap can break the run. The tap is a plain observer —
    /// with [`NoTap`] this is exactly `run_with_probe`, byte for byte.
    pub fn run_with_probe_and_tap(
        &mut self,
        max_time: SimTime,
        probe_interval: SimTime,
        mut probe: impl FnMut(&mut ProbeCtx<'_, M>) -> ControlFlow<()>,
        tap: &mut dyn EventTap<M>,
    ) -> RunReport {
        assert!(
            probe_interval > SimTime::ZERO,
            "probe interval must be positive"
        );
        if !self.started {
            self.started = true;
            self.schedule_plans();
        }
        let mut next_probe = if probe_interval == SimTime::MAX {
            SimTime::MAX
        } else {
            self.core.now + probe_interval
        };
        loop {
            let Some(event) = self.core.next_ready() else {
                return self.report();
            };
            // Fire probes scheduled before this event.
            while next_probe <= event.time && next_probe <= max_time {
                self.core.now = next_probe;
                let mut ctx = ProbeCtx {
                    time: next_probe,
                    nodes: &self.nodes,
                    state: &self.core.state,
                    metrics: &mut self.core.metrics,
                };
                if probe(&mut ctx).is_break() {
                    // Requeue the unprocessed event so a later run resumes.
                    self.core.queue.push(event);
                    return self.report();
                }
                next_probe += probe_interval;
            }
            if event.time > max_time {
                self.core.queue.push(event);
                self.core.now = max_time;
                return self.report();
            }
            self.core.now = event.time;
            if self.step(event, tap).is_break() {
                return self.report();
            }
        }
    }

    /// Queues the start events and every plan's windows, once, before the
    /// first event runs.
    fn schedule_plans(&mut self) {
        let n = self.nodes.len();
        for id in 0..n {
            self.core
                .push(SimTime::ZERO, id, EventBody::Input(Input::Start));
        }
        if !self.core.faults.partitions.is_empty() {
            self.core
                .metrics
                .add_counter("fault.partitions", self.core.faults.partitions.len() as u64);
        }
        for crash in self.core.faults.crashes.clone() {
            assert!(crash.node < n, "crash of unknown node");
            self.core
                .push(crash.at, crash.node, EventBody::Leave(Absence::Crash));
            if let Some(t) = crash.restart {
                self.core
                    .push(t, crash.node, EventBody::Return(Absence::Crash));
            }
        }
        for w in self.core.faults.conns.clone() {
            assert!(w.a < n && w.b < n, "conn drop of unknown node");
            self.core
                .push(w.start, w.a, EventBody::Count("fault.conn.drop"));
            self.core
                .push(w.end, w.a, EventBody::Count("fault.conn.restore"));
        }
        for &(node, mul) in &self.core.availability.compute {
            assert!(node < n, "compute tier of unknown node");
            self.core.state[node].compute_mul = mul;
        }
        for w in self.core.availability.offline.clone() {
            assert!(w.node < n, "offline window of unknown node");
            self.core
                .push(w.start, w.node, EventBody::Leave(Absence::Offline));
            self.core
                .push(w.end, w.node, EventBody::Return(Absence::Offline));
        }
    }

    /// Processes one event that is due now.
    fn step(&mut self, event: Event<M>, tap: &mut dyn EventTap<M>) -> ControlFlow<()> {
        let (node, at) = (event.node, event.time);
        match event.body {
            // Internal bandwidth bookkeeping: not a node event, not
            // counted, not reported to taps.
            EventBody::FlowTick { trunk, gen } => {
                self.core.flow_tick(at, trunk, gen);
                ControlFlow::Continue(())
            }
            // Counted as processed, but not a node event: not reported.
            EventBody::Count(counter) => {
                self.core.metrics.add_counter(counter, 1);
                self.events_processed += 1;
                ControlFlow::Continue(())
            }
            EventBody::Leave(absence) => self.leave(absence, node, tap),
            EventBody::Return(absence) => self.back(absence, node, tap),
            EventBody::Input(input) => {
                if event.queued.is_some() {
                    self.core.state[node].inbox -= 1;
                }
                let kind = if self.core.state[node].absent != [false; 2] {
                    self.discard(node)
                } else {
                    let kind = self.run_input(node, input, tap)?;
                    self.core.promote_deferred(node, event.seq);
                    kind
                };
                self.processed(tap, node, kind)
            }
        }
    }

    /// Counts one processed event and reports it to `tap`.
    fn processed(
        &mut self,
        tap: &mut dyn EventTap<M>,
        node: NodeId,
        kind: TapKind,
    ) -> ControlFlow<()> {
        self.events_processed += 1;
        tap.after_event(node, kind, &self.tap_ctx())
    }

    /// Hands `input` to its live node now.
    fn run_input(
        &mut self,
        node: NodeId,
        input: Input<M>,
        tap: &mut dyn EventTap<M>,
    ) -> ControlFlow<(), TapKind> {
        let (actor, at) = (&mut self.nodes[node], self.core.now);
        let (from, msg) = match input {
            Input::Start => {
                self.core.dispatch(node, at, |env| actor.on_start(env));
                return ControlFlow::Continue(TapKind::Start);
            }
            Input::Timer { tag } => {
                self.core.dispatch(node, at, |env| actor.on_timer(env, tag));
                return ControlFlow::Continue(TapKind::Timer);
            }
            Input::Deliver { from, msg } => (from, msg),
            // A computed message settles here, where it is handed over.
            Input::DeliverComputed { from, msg } => (from, msg.settle()),
        };
        // What the tap sees first, then what the node gets.
        tap.on_deliver(from, node, &msg, &self.tap_ctx())?;
        let actor = &mut self.nodes[node];
        self.core
            .dispatch(node, at, |env| actor.on_message(env, from, msg));
        ControlFlow::Continue(TapKind::Deliver)
    }

    fn tap_ctx(&self) -> TapCtx<'_, M> {
        TapCtx {
            time: self.core.now,
            nodes: &self.nodes,
            state: &self.core.state,
            metrics: &self.core.metrics,
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            events_processed: self.events_processed,
            end_time: self.core.now,
        }
    }
}
