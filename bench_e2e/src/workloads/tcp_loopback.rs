//! `tcp_loopback_2s8c`: real sockets. Two `SpykerServer`s and eight
//! `FlClient`s, each under `transport::tcp::run_node` on its own thread,
//! on 127.0.0.1 ephemeral ports, exchanging a dense 16 384-dim model
//! (64 KiB frames).
//!
//! Why it is here: it is the only workload where `core::codec` framing
//! (`frame_into`, `FrameAccumulator`, `decode`) and `transport` (queues,
//! reader/writer threads, `TcpEnv`) run at all; the DES never serialises a
//! byte. It has both client↔server and server↔server links.
//!
//! The loop is closed: a client sends its next update only after the
//! model reply, so eight updates are in flight at most. When the timed
//! window is over, [`Probe`] stops delivering what servers send: a client
//! that gets no model sends no update, and a server that hears nothing
//! from its peer stops exchanging. The updates still in flight are served,
//! the deployment falls silent, and only then do the nodes shut down. No
//! message ever meets a closed peer, so every `fault.dropped.*` is a
//! failed operation, and a client whose last update went unanswered fails
//! the run.
//!
//! Eight clients are enough to keep both cores of this box busy, which
//! makes throughput a measure of the work per update; with one client per
//! server it is a measure of thread wake-up latency and swings ±25 % from
//! one deployment to the next. `agg_cost` and the training delay are zero
//! on purpose — with the paper's 2 ms `agg_cost`, `TcpEnv::busy` sleeps
//! and throughput pins at what `thread::sleep` allows, whatever the
//! dimension.

use std::any::Any;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spyker_core::client::FlClient;
use spyker_core::config::SpykerConfig;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::MeanTargetTrainer;
use spyker_simnet::{Env, Metrics, Node, NodeId, SimTime};
use spyker_transport::tcp::{run_node, TcpNodeConfig, TcpReport};

use super::Rep;
use crate::stats::highest_percentile;
use crate::trace::{self, Name, Role, Span};

const SERVERS: usize = 2;
const CLIENTS: usize = 8;
const NODES: usize = SERVERS + CLIENTS;
/// Model dimension (64 KiB dense frames).
pub const DIM: usize = 16_384;
/// How often a stolen ephemeral port is tolerated before giving up.
const BIND_ATTEMPTS: usize = 5;
/// How long the nodes stay up after the timed window, so that the last
/// replies land and the servers fall silent before any socket closes.
const DRAIN: Duration = Duration::from_millis(400);

/// The protocol configuration of this workload.
fn config() -> SpykerConfig {
    let mut config = SpykerConfig::paper_defaults(CLIENTS, SERVERS).with_thresholds(2.0, 25.0);
    config.agg_cost = SimTime::ZERO;
    config
}

/// What the probe around one node saw.
#[derive(Default)]
struct Observed {
    /// When `on_start` began: the node's timed section starts here.
    started: Option<Instant>,
    /// When the most recent handler returned.
    last: Option<Instant>,
    /// Handlers run (start, deliveries, timers).
    handlers: u64,
    /// Update round trips, nanoseconds (clients only).
    rtt_ns: Vec<u64>,
    /// The client received the reply to its last update and stopped
    /// (clients only).
    drained: bool,
}

/// Counts a node's handlers and, for clients, times each update round
/// trip with two `Instant`s: from `Env::send(ClientUpdate)` to the start
/// of the handler that receives the next `ModelToClient`. It also ends
/// the timed window: from `quiesce_at` on, nothing a server sent reaches
/// the node (a client's last reply is still timed).
struct Probe {
    inner: Box<dyn Node<FlMsg>>,
    seen: Arc<Mutex<Observed>>,
    sent_at: Option<Instant>,
    quiesce_at: Instant,
}

impl Probe {
    fn handle(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        f: impl FnOnce(&mut dyn Node<FlMsg>, &mut ProbeEnv<'_>),
    ) {
        let mut env = ProbeEnv {
            inner: env,
            sent_at: &mut self.sent_at,
        };
        f(self.inner.as_mut(), &mut env);
        let mut seen = self.seen.lock().expect("probe state poisoned");
        seen.handlers += 1;
        seen.last = Some(Instant::now());
    }
}

impl Node<FlMsg> for Probe {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.seen.lock().expect("probe state poisoned").started = Some(Instant::now());
        self.handle(env, |node, env| node.on_start(env));
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let reply = matches!(msg, FlMsg::ModelToClient { .. });
        if reply {
            if let Some(sent) = self.sent_at.take() {
                let rtt = sent.elapsed().as_nanos() as u64;
                self.seen
                    .lock()
                    .expect("probe state poisoned")
                    .rtt_ns
                    .push(rtt);
            }
        }
        if from < SERVERS && Instant::now() >= self.quiesce_at {
            if reply {
                self.seen.lock().expect("probe state poisoned").drained = true;
            }
            return;
        }
        self.handle(env, |node, env| node.on_message(env, from, msg));
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        self.handle(env, |node, env| node.on_timer(env, tag));
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        self.handle(env, |node, env| node.on_restart(env));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Forwards everything; notes when a client update leaves.
struct ProbeEnv<'a> {
    inner: &'a mut dyn Env<FlMsg>,
    sent_at: &'a mut Option<Instant>,
}

impl Env<FlMsg> for ProbeEnv<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn send(&mut self, to: NodeId, msg: FlMsg) {
        if matches!(msg, FlMsg::ClientUpdate { .. }) {
            *self.sent_at = Some(Instant::now());
        }
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.inner.set_timer(delay, tag);
    }
    fn busy(&mut self, duration: SimTime) {
        self.inner.busy(duration);
    }
    fn record(&mut self, series: &str, value: f64) {
        self.inner.record(series, value);
    }
    fn add_counter(&mut self, name: &str, delta: u64) {
        self.inner.add_counter(name, delta);
    }
    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.inner.add_counter_suffixed(prefix, suffix, delta);
    }
    fn observe(&mut self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }
    fn gauge_set(&mut self, name: &str, value: f64) {
        self.inner.gauge_set(name, value);
    }
    fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.gauge(name)
    }
    fn span_enter(&mut self, name: &'static str) {
        self.inner.span_enter(name);
    }
    fn span_exit(&mut self, name: &'static str) {
        self.inner.span_exit(name);
    }
}

/// An ephemeral localhost address that was free a moment ago.
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral loopback port")
}

struct NodeRun {
    report: TcpReport,
    spans: Vec<Span>,
}

struct Deployment {
    /// When the node threads were spawned (inputs and actors were built
    /// before, binding and dialing happen after).
    spawned: Instant,
    runs: Vec<NodeRun>,
}

/// Starts every node, lets the clients send for `window`, waits for the
/// loop to drain and the nodes to stop, and returns the per-node results;
/// `Err` only for a listen address that could not be bound (the caller
/// retries on fresh ports).
fn deploy(
    seed: u64,
    traced: bool,
    window: Duration,
    epoch: Instant,
    seen: &[Arc<Mutex<Observed>>],
) -> std::io::Result<Deployment> {
    let addrs: Vec<SocketAddr> = (0..SERVERS).map(|_| free_addr()).collect();
    let config = config();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c9_100b);
    let mut nodes: Vec<(Box<dyn Node<FlMsg>>, TcpNodeConfig)> = Vec::new();
    for s in 0..SERVERS {
        let clients = (0..CLIENTS)
            .filter(|c| c % SERVERS == s)
            .map(|c| SERVERS + c)
            .collect();
        let server = SpykerServer::new(
            s,
            (0..SERVERS).collect(),
            clients,
            ParamVec::zeros(DIM),
            config.clone(),
        );
        let mut ncfg = TcpNodeConfig::new(s, NODES);
        ncfg.listen = Some(addrs[s]);
        ncfg.peers = (0..s).map(|j| (j, addrs[j])).collect();
        nodes.push((trace::node(Box::new(server), Role::Server, traced), ncfg));
    }
    for c in 0..CLIENTS {
        let server = c % SERVERS;
        let centre = rng.gen_range(-1.0..=1.0f32);
        let target: Vec<f32> = (0..DIM)
            .map(|_| centre + rng.gen_range(-0.25..=0.25f32))
            .collect();
        let trainer = Box::new(MeanTargetTrainer::new(target, 8));
        let client = FlClient::new(
            server,
            trace::trainer(trainer, traced),
            config.client_epochs,
            SimTime::ZERO,
        );
        let mut ncfg = TcpNodeConfig::new(SERVERS + c, NODES);
        ncfg.peers = vec![(server, addrs[server])];
        ncfg.seed = seed.wrapping_add(c as u64);
        nodes.push((trace::node(Box::new(client), Role::Client, traced), ncfg));
    }

    let spawned = Instant::now();
    // No node starts before its `connect_grace` is over, and each runs for
    // `window + DRAIN` from there: every node is still up `DRAIN` after
    // the window closed.
    let quiesce_at = spawned + nodes[0].1.connect_grace + window;
    let run_for = window + DRAIN;
    let handles: Vec<_> = nodes
        .into_iter()
        .zip(seen)
        .map(|((inner, ncfg), seen)| {
            let node = Box::new(Probe {
                inner,
                seen: Arc::clone(seen),
                sent_at: None,
                quiesce_at,
            });
            thread::spawn(move || {
                if traced {
                    trace::start(epoch);
                }
                let report = {
                    let _run = trace::span(Name::Loop);
                    run_node(node, &ncfg, run_for)
                };
                report.map(|report| NodeRun {
                    report,
                    spans: trace::finish(),
                })
            })
        })
        .collect();
    // Join every thread before looking at any result, so a failed bind
    // never leaves a node running behind the retry.
    let joined: Vec<_> = handles.into_iter().map(thread::JoinHandle::join).collect();
    let runs = joined
        .into_iter()
        .map(|r| r.expect("a node thread panicked"))
        .collect::<std::io::Result<_>>()?;
    Ok(Deployment { spawned, runs })
}

/// One repetition: deploy, let the closed loop run for `seconds`, drain
/// it, shut down, merge what the ten nodes measured.
pub fn rep(seed: u64, traced: bool, seconds: f64) -> Rep {
    let t0 = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut attempt = 0;
    let (Deployment { spawned, runs }, seen) = loop {
        let seen: Vec<Arc<Mutex<Observed>>> = (0..NODES).map(|_| Arc::default()).collect();
        match deploy(seed, traced, window, t0, &seen) {
            Ok(deployment) => break (deployment, seen),
            Err(e) if e.kind() == ErrorKind::AddrInUse && attempt + 1 < BIND_ATTEMPTS => {
                attempt += 1;
            }
            Err(e) => panic!("tcp deployment failed: {e}"),
        }
    };

    let seen: Vec<Observed> = seen
        .iter()
        .map(|s| std::mem::take(&mut *s.lock().expect("probe state poisoned")))
        .collect();
    let first_start = seen
        .iter()
        .filter_map(|s| s.started)
        .min()
        .expect("every node ran on_start");
    let last_handler = seen
        .iter()
        .filter_map(|s| s.last)
        .max()
        .expect("every node ran a handler");
    let setup_s = (first_start - t0).as_secs_f64();
    let wall_s = (last_handler - first_start).as_secs_f64();
    let mut rtt_ms: Vec<f64> = seen
        .iter()
        .flat_map(|s| &s.rtt_ns)
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    rtt_ms.sort_by(f64::total_cmp);

    let mut problems = Vec::new();
    let mut metrics = Metrics::new();
    for (id, run) in runs.iter().enumerate() {
        metrics.merge(&run.report.metrics);
        if id >= SERVERS {
            continue;
        }
        let m = &run.report.metrics;
        if m.counter("updates.processed") == 0 || m.counter("syncs.triggered") == 0 {
            problems.push(format!(
                "server {id} processed {} updates and triggered {} exchanges",
                m.counter("updates.processed"),
                m.counter("syncs.triggered")
            ));
        }
        let server = run
            .report
            .node
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("servers occupy the first node ids");
        if !server.params().is_finite() {
            problems.push(format!("server {id}: model is not finite"));
        }
    }
    for (c, client) in seen.iter().enumerate().skip(SERVERS) {
        if !client.drained {
            problems.push(format!(
                "client {c} never got the reply to its last update ({} round trips)",
                client.rtt_ns.len()
            ));
        }
    }
    if highest_percentile(rtt_ms.len()) < Some(0.99) {
        problems.push(format!(
            "{} round trips are too few to report a p99",
            rtt_ms.len()
        ));
    }
    if metrics.counter("net.queue.shed") != 0 {
        problems.push(format!(
            "{} frames were shed",
            metrics.counter("net.queue.shed")
        ));
    }
    // Bind, dial and `connect_grace`, all inside `run_node`.
    let connect_s = (first_start - spawned).as_secs_f64();
    Rep {
        setup_s,
        setup_parts: vec![("transport.connect_s", connect_s)],
        wall_s,
        events: seen.iter().map(|s| s.handlers).sum(),
        quality: None,
        time_to_target_s: None,
        rtt_ms,
        metrics,
        problems,
        spans: runs.into_iter().map(|r| r.spans).collect(),
    }
}
