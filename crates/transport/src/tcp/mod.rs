//! Multi-process TCP deployment of the protocol actors.
//!
//! This module runs ONE node per OS process over real sockets, speaking the
//! canonical `spyker-core::codec` frames with a 4-byte little-endian
//! length prefix (reassembled by `codec::FrameAccumulator`). Robustness is
//! the design center — see `DESIGN.md` §13:
//!
//! * **Bounded backpressure.** The sending thread writes a frame to the
//!   socket itself when nothing is ahead of it, for at most about a
//!   millisecond; what the socket does not take waits on the peer's
//!   bounded outbound queue for the connection's writer thread. Control
//!   traffic ([`FlMsg::is_control`]: the token, age gossip, membership
//!   signalling) waits up to the liveness timeout for room when the queue
//!   is full; bulk model traffic is shed at once. Either way a frame that
//!   finds no room counts as `net.queue.shed`. Nothing grows without
//!   bound.
//! * **Reconnect with capped exponential backoff + jitter.** The dialing
//!   side of every connection retries forever (`net.conn.retries`) on a
//!   fixed schedule: 50 ms before the first retry, doubling per failed
//!   attempt up to 2 s, each delay scaled by a uniform ±20 % jitter.
//!   Connections are asymmetric (servers dial lower-indexed servers,
//!   clients dial their server) so exactly one side owns
//!   re-establishment.
//! * **Heartbeat liveness.** A writer pings after a heartbeat interval in
//!   which the socket took no bytes; a reader that sees nothing for the
//!   liveness timeout declares the peer dead and severs the connection.
//!   Readers never write, so each side's pings are all the other side's
//!   liveness check needs.
//! * **Disconnects are faults.** A severed connection surfaces as
//!   `fault.conn.drop` / `net.conn.dropped`, and messages addressed to an
//!   unconnected peer, or lost with a connection while queued or half
//!   written, count as `fault.dropped` + `fault.dropped.conn` — the same
//!   accounting the simulator's `conn.drop` fault windows produce, so the
//!   `SpykerConfig::recovery` self-healing path (token watchdog, degraded
//!   exchanges, client repokes) absorbs a crashed peer with no
//!   transport-specific protocol code.
//! * **Hostile bytes are survivable.** Corrupt payloads are counted
//!   (`net.frames.corrupt`) and skipped; a desynchronised stream
//!   (oversize length prefix) drops the connection. Decoding never
//!   panics.
//!
//! Handlers run on the thread that called [`run_node`], which encodes each
//! frame into a buffer rented from a [`Scratch`](spyker_tensor::Scratch)
//! byte pool and gets it back after an inline write, so steady-state sends
//! perform no heap allocation. Inbound, a reader reads the socket straight
//! into its `FrameAccumulator` and decodes each payload where it lies, so
//! a model is copied once in user space on either side. The sockets,
//! queues and connection threads are in `conn`; this file holds the
//! [`Env`] and the event loop.

mod conn;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use spyker_core::msg::FlMsg;
use spyker_simnet::metrics::Metrics;
use spyker_simnet::runtime::{Env, Node, NodeId, WireSize};
use spyker_simnet::time::SimTime;
use spyker_tensor::Scratch;

use conn::{
    acceptor_loop, count_lost, count_written, dialer_loop, ConnCtx, Frame, OutFrame, PeerTable,
    Sent, SharedMetrics, FRAME_HELLO,
};

/// One uniform draw in `[0, 1)` advancing a splitmix64 stream:
/// self-contained, no RNG dependency. The transport is wall-clock driven
/// and thus not bit-reproducible anyway, so stream quality matters more
/// than replay.
fn splitmix_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The delay to sleep after the `attempt`-th consecutive failed dial
/// (0-based): 50 ms doubling per attempt, capped at 2 s, scaled by a
/// uniform draw from `[0.8, 1.2]` off the caller's jitter stream.
fn backoff_delay(attempt: u32, rng: &mut u64) -> Duration {
    let base = (0.05 * 2f64.powi(attempt.min(63) as i32)).min(2.0);
    let jitter = 1.0 + 0.2 * (2.0 * splitmix_unit(rng) - 1.0);
    Duration::from_secs_f64(base * jitter)
}

/// Configuration of one TCP node process.
#[derive(Debug, Clone)]
pub struct TcpNodeConfig {
    /// This node's id in the deployment.
    pub me: NodeId,
    /// Total number of nodes (servers + clients) in the deployment.
    pub num_nodes: usize,
    /// Address to accept inbound connections on (servers); `None` for
    /// dial-only nodes (clients).
    pub listen: Option<SocketAddr>,
    /// Peers this node dials (and keeps re-dialing): servers dial every
    /// lower-indexed server, clients dial their server.
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Addresses of peers this node does NOT dial at startup but may need
    /// later — elastic-membership joiners and failover candidates. The
    /// first send to such a peer lazily starts a dialer for it
    /// (`net.conn.ondemand`); until the connection is up, sends degrade
    /// into counted drops exactly like a `conn.drop` fault window.
    pub addr_book: Vec<(NodeId, SocketAddr)>,
    /// Idle interval after which a writer sends a ping.
    pub heartbeat: Duration,
    /// Silence interval after which a reader declares the peer dead. Must
    /// comfortably exceed `heartbeat`.
    pub liveness_timeout: Duration,
    /// Outbound queue capacity per peer (frames).
    pub queue_capacity: usize,
    /// Start the node via [`Node::on_restart`] instead of
    /// [`Node::on_start`] — the restart-rejoin path for a process that
    /// was killed and relaunched mid-training.
    pub rejoin: bool,
    /// Grace period between spawning the connection threads and starting
    /// the node, so first-contact messages find established connections.
    pub connect_grace: Duration,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
}

impl TcpNodeConfig {
    /// A config with production-shaped defaults; fill in `listen` and
    /// `peers` before use.
    pub fn new(me: NodeId, num_nodes: usize) -> Self {
        Self {
            me,
            num_nodes,
            listen: None,
            peers: Vec::new(),
            addr_book: Vec::new(),
            heartbeat: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(2),
            queue_capacity: 64,
            rejoin: false,
            connect_grace: Duration::from_millis(300),
            seed: me as u64,
        }
    }
}

/// What [`run_node`] hands back when the run window closes.
pub struct TcpReport {
    /// The node actor with its final state.
    pub node: Box<dyn Node<FlMsg>>,
    /// Protocol and transport metrics, merged across all connection
    /// threads.
    pub metrics: Metrics,
    /// Wall-clock run length as virtual time (scale 1:1).
    pub end: SimTime,
}

/// The [`Env`] a TCP-deployed node runs against: wall-clock time mapped
/// 1:1 onto [`SimTime`]; each send is encoded here and written to the
/// peer's socket, or queued for its writer when the socket is busy.
struct TcpEnv {
    /// When the node started: after the connect grace.
    start: Instant,
    metrics: Metrics,
    /// Pending timers as `(at, seq, tag)`, earliest first; `seq` is
    /// unique, so timers due at one instant fire in the order set.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    timer_seq: u64,
    /// Known addresses of peers no dialer runs for yet (elastic joiners,
    /// failover candidates); consulted on the first send to each.
    addr_book: HashMap<NodeId, SocketAddr>,
    ctx: ConnCtx,
    seed: u64,
    /// The acceptor and the dialers; joined at shutdown.
    threads: Vec<thread::JoinHandle<()>>,
    /// Staging buffers for outbound frames, back after each inline write.
    scratch: Scratch,
}

impl TcpEnv {
    /// Starts the thread that keeps `peer` dialed at `addr`, on its own
    /// jitter stream.
    fn dial(&mut self, peer: NodeId, addr: SocketAddr) {
        self.addr_book.remove(&peer);
        let ctx = self.ctx.clone();
        let seed = self.seed ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.threads
            .push(thread::spawn(move || dialer_loop(peer, addr, &ctx, seed)));
    }
}

fn to_duration(t: SimTime) -> Duration {
    Duration::from_micros(t.as_micros())
}

impl Env<FlMsg> for TcpEnv {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn me(&self) -> NodeId {
        self.ctx.me
    }

    fn num_nodes(&self) -> usize {
        self.ctx.num_nodes
    }

    fn send(&mut self, to: NodeId, msg: FlMsg) {
        self.metrics.count_sent(msg.kind(), msg.wire_size() as u64);
        let Some(q) = self.ctx.peers.get(to) else {
            // No live connection: the message is eaten exactly like a
            // `conn.drop` fault window in the simulator; the recovery
            // watchdogs are what heals the protocol. A peer that did not
            // exist at startup (an elastic joiner spliced in mid-run, or
            // a failover candidate) gets a dialer now if the address book
            // knows it, so the retry lands.
            if let Some(&addr) = self.addr_book.get(&to) {
                self.metrics.add_counter("net.conn.ondemand", 1);
                self.dial(to, addr);
            }
            count_lost(&mut self.metrics, 1);
            return;
        };
        let wait = msg.is_control().then_some(self.ctx.liveness);
        let frame = Frame::encode(&OutFrame::Msg(&msg), self.scratch.take_bytes());
        match q.send(frame, wait) {
            Sent::Written(buf) => {
                count_written(&mut self.metrics, &buf);
                self.scratch.recycle_bytes(buf);
            }
            Sent::Queued => {}
            Sent::Shed => self.metrics.add_counter("net.queue.shed", 1),
            Sent::Lost(n) => count_lost(&mut self.metrics, n),
        }
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        let at = Instant::now() + to_duration(delay);
        self.timers.push(Reverse((at, seq, tag)));
    }

    fn busy(&mut self, duration: SimTime) {
        thread::sleep(to_duration(duration));
    }

    fn record(&mut self, series: &str, value: f64) {
        let at = self.now();
        self.metrics.record(series, at, value);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        self.metrics.add_counter(name, delta);
    }

    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.metrics.add_counter_suffixed(prefix, suffix, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    /// Own-node gauges only: a TCP process cannot observe its peers'
    /// metrics, so an autoscaler on this transport sees just the gauges
    /// the local node published.
    fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.gauge(name)
    }

    fn span_enter(&mut self, name: &'static str) {
        let at = self.now();
        self.metrics.span_enter(self.ctx.me as u32, name, at);
    }

    fn span_exit(&mut self, name: &'static str) {
        let at = self.now();
        self.metrics.span_exit(self.ctx.me as u32, name, at);
    }
}

/// Runs one protocol node over TCP for `run_for` of wall-clock time,
/// then shuts the connections down and returns the node and its metrics.
///
/// With `cfg.rejoin` the node starts via [`Node::on_restart`] — the path
/// a relaunched process takes to re-announce itself and re-arm its
/// watchdogs after a crash.
///
/// # Errors
///
/// Returns an error when `cfg.listen` is set and the address cannot be
/// bound. Connection failures after that are not errors — they are faults
/// the transport retries and the protocol absorbs.
pub fn run_node(
    mut node: Box<dyn Node<FlMsg>>,
    cfg: &TcpNodeConfig,
    run_for: Duration,
) -> io::Result<TcpReport> {
    let listener = cfg.listen.map(TcpListener::bind).transpose()?;
    let (inbox, rx) = unbounded::<(NodeId, FlMsg)>();
    let mut env = TcpEnv {
        start: Instant::now(),
        metrics: Metrics::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        addr_book: cfg.addr_book.iter().copied().collect(),
        ctx: ConnCtx {
            me: cfg.me,
            num_nodes: cfg.num_nodes,
            peers: PeerTable::new(),
            inbox,
            net: SharedMetrics::new(),
            heartbeat: cfg.heartbeat,
            liveness: cfg.liveness_timeout,
            queue_capacity: cfg.queue_capacity,
            stop: Arc::new(AtomicBool::new(false)),
        },
        seed: cfg.seed,
        threads: Vec::new(),
        scratch: Scratch::new(),
    };
    if let Some(listener) = listener {
        let ctx = env.ctx.clone();
        env.threads
            .push(thread::spawn(move || acceptor_loop(listener, ctx)));
    }
    for &(peer, addr) in &cfg.peers {
        env.dial(peer, addr);
    }
    thread::sleep(cfg.connect_grace);
    env.start = Instant::now();
    if cfg.rejoin {
        node.on_restart(&mut env);
    } else {
        node.on_start(&mut env);
    }
    let deadline = Instant::now() + run_for;
    loop {
        while let Some(&Reverse((at, _, tag))) = env.timers.peek() {
            if at > Instant::now() {
                break;
            }
            env.timers.pop();
            node.on_timer(&mut env, tag);
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = env
            .timers
            .peek()
            .map_or(deadline, |&Reverse((at, ..))| at.min(deadline));
        let timeout = wake
            .saturating_duration_since(now)
            .min(Duration::from_millis(100));
        match rx.recv_timeout(timeout) {
            Ok((from, msg)) => node.on_message(&mut env, from, msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    env.ctx.stop.store(true, Ordering::Relaxed);
    env.ctx.peers.close_all();
    for j in env.threads.drain(..) {
        let _ = j.join();
    }
    let end = env.now();
    let mut metrics = env.metrics;
    metrics.merge(&env.ctx.net.take());
    Ok(TcpReport { node, metrics, end })
}

/// A hostile client for soak testing: connects to `addr` and pumps
/// malformed frames (bogus Hellos, garbage payloads, truncated frames,
/// oversize length prefixes), reconnecting as the server drops it. The
/// server under attack must keep training and must not panic.
pub fn run_malformed_client(addr: SocketAddr, run_for: Duration, seed: u64) -> Metrics {
    let mut metrics = Metrics::new();
    let mut rng = seed;
    let deadline = Instant::now() + run_for;
    while Instant::now() < deadline {
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
            metrics.add_counter("net.conn.retries", 1);
            thread::sleep(Duration::from_millis(100));
            continue;
        };
        metrics.add_counter("net.conn.dialed", 1);
        for _ in 0..16 {
            if Instant::now() >= deadline {
                break;
            }
            let mut buf = Vec::new();
            let roll = splitmix_unit(&mut rng);
            if roll < 0.3 {
                // A well-formed Hello claiming an out-of-range node id.
                buf.extend_from_slice(&5u32.to_le_bytes());
                buf.push(FRAME_HELLO);
                buf.extend_from_slice(&u32::MAX.to_le_bytes());
            } else if roll < 0.6 {
                // Random garbage behind a plausible length prefix.
                let n = 1 + (splitmix_unit(&mut rng) * 64.0) as usize;
                buf.extend_from_slice(&(n as u32).to_le_bytes());
                for _ in 0..n {
                    buf.push((splitmix_unit(&mut rng) * 256.0) as u8);
                }
            } else if roll < 0.8 {
                // Truncated: claim more bytes than will ever arrive, so
                // the server's liveness timeout has to reap us.
                buf.extend_from_slice(&1024u32.to_le_bytes());
                buf.extend_from_slice(&[0xAB; 16]);
            } else {
                // Oversize length prefix: a deliberate stream desync.
                buf.extend_from_slice(&u32::MAX.to_le_bytes());
            }
            if stream.write_all(&buf).is_err() {
                break;
            }
            metrics.add_counter("net.frames.sent", 1);
            thread::sleep(Duration::from_millis(20));
        }
        let _ = stream.shutdown(Shutdown::Both);
        thread::sleep(Duration::from_millis(50));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use spyker_core::codec::{self, FrameAccumulator};
    use spyker_core::membership::RingView;
    use spyker_core::params::ParamVec;

    use super::conn::{FRAME_MSG, FRAME_PING, INLINE_BOUND};
    use super::*;

    /// Small frames sent one every `BUSY_EVERY` keep the connection busy.
    const BUSY_FRAMES: u64 = 40;
    const BUSY_EVERY: SimTime = SimTime::from_millis(10);
    /// 64 KiB frames sent back to back into a receiver that stopped
    /// reading: more than the socket buffers and the queue hold.
    const BURST: usize = 240;
    const BIG_DIM: usize = 16_384;
    /// How long the receiver stops reading.
    const STALL: Duration = Duration::from_millis(1000);
    /// Scheduling noise allowed on top of the inline bound.
    const SLACK: Duration = Duration::from_millis(100);

    /// Idle until its first timer, then `BUSY_FRAMES` small bulk frames
    /// one every `BUSY_EVERY`, then, a little later, a burst of `BURST`
    /// big ones, timing each `send`, then `then`, if set.
    #[derive(Default)]
    struct Scripted {
        burst_sends: Vec<Duration>,
        then: Option<FlMsg>,
    }

    impl Node<FlMsg> for Scripted {
        fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
            env.set_timer(SimTime::from_millis(900), 0);
        }

        fn on_message(&mut self, _: &mut dyn Env<FlMsg>, _: NodeId, _: FlMsg) {}

        fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
            if tag < BUSY_FRAMES {
                let params = ParamVec::zeros(1);
                env.send(
                    0,
                    FlMsg::ClientUpdate {
                        params,
                        age: 0.0,
                        num_samples: 1,
                    },
                );
                let next = if tag + 1 < BUSY_FRAMES {
                    BUSY_EVERY
                } else {
                    SimTime::from_millis(200)
                };
                env.set_timer(next, tag + 1);
                return;
            }
            let params = ParamVec::zeros(BIG_DIM);
            for _ in 0..BURST {
                let msg = FlMsg::ModelToClient {
                    params: params.clone(),
                    age: 0.0,
                    lr: 0.1,
                };
                let t = Instant::now();
                env.send(0, msg);
                self.burst_sends.push(t.elapsed());
            }
            if let Some(msg) = self.then.take() {
                env.send(0, msg);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The kinds of the complete frames in `acc`, every message decoded.
    fn drain_kinds(acc: &mut FrameAccumulator, kinds: &mut Vec<u8>) {
        while let Some(payload) = acc.next_frame_ref().expect("no torn frame") {
            let (&kind, body) = payload.split_first().expect("no torn frame");
            if kind == FRAME_MSG {
                codec::decode(body).expect("every message decodes");
            }
            kinds.push(kind);
        }
    }

    #[test]
    fn a_stalled_receiver_bounds_sends_sheds_bulk_and_tears_no_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut cfg = TcpNodeConfig::new(1, 2);
        cfg.peers = vec![(0, listener.local_addr().unwrap())];
        cfg.heartbeat = Duration::from_millis(200);
        // Longer than the run: the receiver never writes back.
        cfg.liveness_timeout = Duration::from_secs(10);
        cfg.queue_capacity = 8;
        let node = thread::spawn(move || {
            run_node(
                Box::<Scripted>::default(),
                &cfg,
                Duration::from_millis(3400),
            )
            .unwrap()
        });
        let (mut sock, _) = listener.accept().unwrap();
        let mut acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
        let mut kinds = Vec::new();
        // Read until the last small frame, then stop reading.
        while kinds.iter().filter(|&&k| k == FRAME_MSG).count() < BUSY_FRAMES as usize {
            acc.read_from(&mut sock).unwrap();
            drain_kinds(&mut acc, &mut kinds);
        }
        let first = kinds.iter().position(|&k| k == FRAME_MSG).unwrap();
        let idle_pings = kinds[..first].iter().filter(|&&k| k == FRAME_PING).count();
        let busy_pings = kinds[first..].iter().filter(|&&k| k == FRAME_PING).count();
        thread::sleep(STALL);
        let mut rest = Vec::new();
        while acc.read_from(&mut sock).unwrap() > 0 {
            drain_kinds(&mut acc, &mut rest);
        }
        let report = node.join().unwrap();

        assert!(
            idle_pings >= 3,
            "an idle connection pings each heartbeat: {idle_pings}"
        );
        assert_eq!(busy_pings, 0, "inline writes count as traffic");
        let node = report.node.as_any().downcast_ref::<Scripted>().unwrap();
        let slowest = node.burst_sends.iter().max().unwrap();
        assert!(*slowest < INLINE_BOUND + SLACK, "a send took {slowest:?}");
        let shed = report.metrics.counter("net.queue.shed");
        assert!(shed > 0, "a full queue sheds bulk");
        let delivered = rest.iter().filter(|&&k| k == FRAME_MSG).count() as u64;
        assert_eq!(
            delivered + shed,
            BURST as u64,
            "every frame not shed arrives whole"
        );
        assert_eq!(report.metrics.counter("fault.dropped"), 0);
    }

    #[test]
    fn a_ring_update_behind_a_full_queue_waits_for_room_and_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut cfg = TcpNodeConfig::new(1, 2);
        cfg.peers = vec![(0, listener.local_addr().unwrap())];
        cfg.liveness_timeout = Duration::from_secs(10);
        cfg.queue_capacity = 8;
        let node = Scripted {
            then: Some(FlMsg::RingUpdate {
                ring: RingView::fixed(&[0, 1]),
                bid_floor: 7,
            }),
            ..Scripted::default()
        };
        let node = thread::spawn(move || {
            run_node(Box::new(node), &cfg, Duration::from_millis(3400)).unwrap()
        });
        let (mut sock, _) = listener.accept().unwrap();
        let mut acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
        let mut kinds = Vec::new();
        // Read until the last small frame, then stop reading while the
        // burst fills the queue and the ring update finds it full.
        while kinds.iter().filter(|&&k| k == FRAME_MSG).count() < BUSY_FRAMES as usize {
            acc.read_from(&mut sock).unwrap();
            drain_kinds(&mut acc, &mut kinds);
        }
        thread::sleep(STALL);
        let mut updates = 0;
        while acc.read_from(&mut sock).unwrap() > 0 {
            while let Some(payload) = acc.next_frame_ref().expect("no torn frame") {
                if let [FRAME_MSG, body @ ..] = payload {
                    let msg = codec::decode(body).expect("every message decodes");
                    updates += usize::from(matches!(msg, FlMsg::RingUpdate { .. }));
                }
            }
        }
        let report = node.join().unwrap();

        assert!(
            report.metrics.counter("net.queue.shed") > 0,
            "the burst fills the queue"
        );
        assert_eq!(updates, 1, "control waits for room instead of being shed");
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let mut rng = 7u64;
        for attempt in 0..40 {
            let d = backoff_delay(attempt, &mut rng).as_secs_f64();
            let base = (0.05 * 2f64.powi(attempt as i32)).min(2.0);
            assert!(
                d >= base * 0.8 - 1e-9 && d <= base * 1.2 + 1e-9,
                "attempt {attempt}: {d} outside jitter band of {base}"
            );
        }
        // Deep attempts saturate at the cap (within jitter).
        let d = backoff_delay(1000, &mut rng).as_secs_f64();
        assert!((1.6 - 1e-9..=2.4 + 1e-9).contains(&d));
    }

    /// Does nothing: the connection carries only the transport's pings.
    struct Idle;

    impl Node<FlMsg> for Idle {
        fn on_start(&mut self, _: &mut dyn Env<FlMsg>) {}

        fn on_message(&mut self, _: &mut dyn Env<FlMsg>, _: NodeId, _: FlMsg) {}

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn idle_peers_stay_connected_on_pings_alone() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cfg = |me| {
            let mut cfg = TcpNodeConfig::new(me, 2);
            cfg.heartbeat = Duration::from_millis(100);
            cfg.liveness_timeout = Duration::from_millis(400);
            cfg
        };
        let mut listening = cfg(0);
        listening.listen = Some(addr);
        let mut dialing = cfg(1);
        dialing.peers = vec![(0, addr)];
        // The listener outlives the dialer, so the dialer never sees its
        // peer shut down and redials.
        let listener = thread::spawn(move || {
            run_node(Box::new(Idle), &listening, Duration::from_millis(3500)).unwrap()
        });
        let dialer = run_node(Box::new(Idle), &dialing, Duration::from_secs(3)).unwrap();
        let listener = listener.join().unwrap();

        assert_eq!(listener.metrics.counter("net.conn.accepted"), 1);
        assert_eq!(dialer.metrics.counter("net.conn.dialed"), 1);
        for report in [&listener, &dialer] {
            assert!(report.metrics.counter("net.heartbeats") > 0);
        }
    }
}
