//! Multi-process TCP deployment of the protocol actors.
//!
//! This module runs ONE node per OS process over real sockets, speaking the
//! canonical `spyker-core::codec` frames with a 4-byte little-endian
//! length prefix (reassembled by `codec::FrameAccumulator`). Robustness is
//! the design center — see `DESIGN.md` §13:
//!
//! * **Bounded backpressure.** Each connected peer gets a bounded
//!   outbound queue. Control traffic (token passes, age gossip) blocks
//!   for a bounded time when the queue is full; bulk model traffic is
//!   shed immediately (`net.queue.shed`). Nothing grows without bound.
//! * **Reconnect with capped exponential backoff + jitter.** The dialing
//!   side of every connection retries forever (`net.conn.retries`) with a
//!   [`BackoffConfig`] schedule; connections are asymmetric (servers dial
//!   lower-indexed servers, clients dial their server) so exactly one
//!   side owns re-establishment.
//! * **Heartbeat liveness.** An idle writer sends a ping every heartbeat
//!   interval; a reader that sees nothing for the liveness timeout
//!   declares the peer dead and severs the connection.
//! * **Disconnects are faults.** A severed connection surfaces as
//!   `fault.conn.drop` / `net.conn.dropped`, and messages addressed to an
//!   unconnected peer count as `fault.dropped` + `fault.dropped.conn` —
//!   the same accounting the simulator's `conn.drop` fault windows
//!   produce, so the `SpykerConfig::recovery` self-healing path (token
//!   watchdog, degraded exchanges, client repokes) absorbs a crashed peer
//!   with no transport-specific protocol code.
//! * **Hostile bytes are survivable.** Corrupt payloads are counted
//!   (`net.frames.corrupt`) and skipped; a desynchronised stream
//!   (oversize length prefix) drops the connection. Decoding never
//!   panics.
//!
//! Outbound frames are staged in buffers rented from a
//! [`Scratch`](spyker_tensor::Scratch) byte pool, so steady-state sends
//! perform no heap allocation. Inbound, a reader reads the socket straight
//! into its `FrameAccumulator` and decodes each payload where it lies, so
//! a model is copied once in user space on either side.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use spyker_core::codec::{self, FrameAccumulator};
use spyker_core::msg::FlMsg;
use spyker_simnet::metrics::Metrics;
use spyker_simnet::runtime::{Env, Node, NodeId, WireSize};
use spyker_simnet::time::SimTime;
use spyker_tensor::Scratch;

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

/// Transport envelope kinds (first payload byte inside a length-prefixed
/// frame).
const FRAME_MSG: u8 = 0;
const FRAME_HELLO: u8 = 1;
const FRAME_PING: u8 = 2;
const FRAME_PONG: u8 = 3;

/// Reconnect schedule: capped exponential backoff with multiplicative
/// jitter.
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Upper bound on the delay between retries.
    pub max: Duration,
    /// Factor applied per failed attempt.
    pub multiplier: f64,
    /// Jitter fraction: the delay is scaled by a uniform draw from
    /// `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            initial: Duration::from_millis(50),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }
}

impl BackoffConfig {
    /// The delay to sleep after the `attempt`-th consecutive failure
    /// (0-based), advancing the caller's jitter stream.
    pub fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt.min(63) as i32);
        let capped = base.min(self.max.as_secs_f64());
        let jitter = 1.0 + self.jitter * (2.0 * splitmix_unit(rng) - 1.0);
        Duration::from_secs_f64((capped * jitter).max(0.0))
    }
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
    /// Reconnect schedule for dialed peers.
    pub backoff: BackoffConfig,
    /// Outbound queue capacity per peer (frames).
    pub queue_capacity: usize,
    /// Maximum accepted frame length in bytes.
    pub max_frame: usize,
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
            backoff: BackoffConfig::default(),
            queue_capacity: 64,
            max_frame: codec::MAX_FRAME_LEN,
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

/// What the reader threads hand to the node's event loop.
type Inbound = (NodeId, FlMsg);

enum OutFrame {
    Msg(FlMsg),
    Hello(NodeId),
    Ping,
    Pong,
}

enum PushOutcome {
    Queued,
    Shed,
    Disconnected,
}

enum Popped {
    Frame(OutFrame),
    Idle,
    Closed,
}

struct QueueState {
    q: VecDeque<OutFrame>,
    closed: bool,
}

/// Bounded outbound queue for one connection; block-or-shed policy is
/// chosen by the caller per message class.
struct PeerQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PeerQueue {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Blocking push for control traffic: waits up to `max_wait` for
    /// space, then sheds. Never blocks unboundedly.
    fn push_control(&self, frame: OutFrame, max_wait: Duration) -> PushOutcome {
        let deadline = Instant::now() + max_wait;
        let mut st = relock(self.state.lock());
        while st.q.len() >= self.cap && !st.closed {
            let now = Instant::now();
            if now >= deadline {
                return PushOutcome::Shed;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
        if st.closed {
            return PushOutcome::Disconnected;
        }
        st.q.push_back(frame);
        self.cv.notify_all();
        PushOutcome::Queued
    }

    /// Non-blocking push for bulk traffic: sheds immediately when full.
    fn push_bulk(&self, frame: OutFrame) -> PushOutcome {
        let mut st = relock(self.state.lock());
        if st.closed {
            return PushOutcome::Disconnected;
        }
        if st.q.len() >= self.cap {
            return PushOutcome::Shed;
        }
        st.q.push_back(frame);
        self.cv.notify_all();
        PushOutcome::Queued
    }

    /// Pops the next frame, waiting up to `idle_after`; an idle timeout
    /// is the writer's cue to heartbeat.
    fn pop(&self, idle_after: Duration) -> Popped {
        let deadline = Instant::now() + idle_after;
        let mut st = relock(self.state.lock());
        loop {
            if let Some(f) = st.q.pop_front() {
                self.cv.notify_all();
                return Popped::Frame(f);
            }
            if st.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::Idle;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    fn close(&self) {
        let mut st = relock(self.state.lock());
        st.closed = true;
        st.q.clear();
        self.cv.notify_all();
    }
}

struct PeerTableInner {
    queues: HashMap<NodeId, Arc<PeerQueue>>,
    /// Peers whose connection dropped at some point; used to count a
    /// re-establishment as `fault.conn.restore`.
    dropped: HashSet<NodeId>,
}

/// Live outbound queues, keyed by peer id.
struct PeerTable {
    inner: Mutex<PeerTableInner>,
}

impl PeerTable {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PeerTableInner {
                queues: HashMap::new(),
                dropped: HashSet::new(),
            }),
        })
    }

    /// Installs `q` as the live queue for `peer` (closing any stale one)
    /// and reports whether this heals a previously-dropped connection.
    fn register(&self, peer: NodeId, q: Arc<PeerQueue>) -> bool {
        let mut inner = relock(self.inner.lock());
        let restored = inner.dropped.remove(&peer);
        if let Some(old) = inner.queues.insert(peer, q) {
            old.close();
        }
        restored
    }

    /// Removes `peer`'s queue if it is still `q` (a reconnect may already
    /// have replaced it) and marks the peer as dropped.
    fn unregister(&self, peer: NodeId, q: &Arc<PeerQueue>) {
        let mut inner = relock(self.inner.lock());
        let current = inner
            .queues
            .get(&peer)
            .is_some_and(|cur| Arc::ptr_eq(cur, q));
        if current {
            inner.queues.remove(&peer);
        }
        inner.dropped.insert(peer);
        q.close();
    }

    fn get(&self, peer: NodeId) -> Option<Arc<PeerQueue>> {
        relock(self.inner.lock()).queues.get(&peer).cloned()
    }

    fn close_all(&self) {
        let inner = relock(self.inner.lock());
        for q in inner.queues.values() {
            q.close();
        }
    }
}

/// Metrics shared by the connection threads, merged into the node's
/// metrics at shutdown.
#[derive(Clone)]
struct SharedMetrics(Arc<Mutex<Metrics>>);

impl SharedMetrics {
    fn new() -> Self {
        Self(Arc::new(Mutex::new(Metrics::new())))
    }

    fn add(&self, name: &str, delta: u64) {
        relock(self.0.lock()).add_counter(name, delta);
    }

    fn take(&self) -> Metrics {
        std::mem::replace(&mut relock(self.0.lock()), Metrics::new())
    }
}

/// Everything a connection thread needs; cheap to clone.
#[derive(Clone)]
struct ConnCtx {
    me: NodeId,
    num_nodes: usize,
    peers: Arc<PeerTable>,
    inbox: Sender<(NodeId, FlMsg)>,
    net: SharedMetrics,
    heartbeat: Duration,
    liveness: Duration,
    max_frame: usize,
    queue_capacity: usize,
    stop: Arc<AtomicBool>,
}

impl ConnCtx {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Serializes one envelope as `[u32 LE len][kind][body]` into an empty
/// staging buffer.
fn encode_frame(frame: &OutFrame, out: &mut Vec<u8>) {
    debug_assert!(out.is_empty(), "staging buffer must start empty");
    out.extend_from_slice(&[0u8; 4]);
    match frame {
        OutFrame::Msg(msg) => {
            out.push(FRAME_MSG);
            codec::encode_into(msg, out);
        }
        OutFrame::Hello(id) => {
            out.push(FRAME_HELLO);
            out.extend_from_slice(&(*id as u32).to_le_bytes());
        }
        OutFrame::Ping => out.push(FRAME_PING),
        OutFrame::Pong => out.push(FRAME_PONG),
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// The payload of a valid Hello frame, if that is what this is.
fn parse_hello(payload: &[u8], num_nodes: usize) -> Option<NodeId> {
    if payload.len() != 5 || payload[0] != FRAME_HELLO {
        return None;
    }
    let id = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
    (id < num_nodes).then_some(id)
}

/// Drains the per-peer queue onto the socket, heartbeating when idle.
/// Exits when the queue closes or a write fails; frame staging reuses a
/// `Scratch` byte pool so the steady state allocates nothing.
fn writer_loop(mut stream: TcpStream, q: &PeerQueue, ctx: &ConnCtx) {
    let _ = stream.set_write_timeout(Some(ctx.liveness));
    let _ = stream.set_nodelay(true);
    let mut scratch = Scratch::new();
    loop {
        let frame = match q.pop(ctx.heartbeat) {
            Popped::Closed => break,
            Popped::Idle => {
                ctx.net.add("net.heartbeats", 1);
                OutFrame::Ping
            }
            Popped::Frame(f) => f,
        };
        let mut buf = scratch.take_bytes();
        encode_frame(&frame, &mut buf);
        let wrote = stream.write_all(&buf);
        let len = buf.len() as u64;
        scratch.recycle_bytes(buf);
        if wrote.is_err() {
            break;
        }
        ctx.net.add("net.frames.sent", 1);
        ctx.net.add("net.bytes.wire", len);
    }
    q.close();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One decoded envelope from the wire.
fn handle_payload(payload: &[u8], peer: NodeId, ctx: &ConnCtx) {
    ctx.net.add("net.frames.recv", 1);
    let Some((&kind, body)) = payload.split_first() else {
        ctx.net.add("net.frames.corrupt", 1);
        return;
    };
    match kind {
        FRAME_MSG => match codec::decode(body) {
            Ok(msg) => {
                let _ = ctx.inbox.send((peer, msg));
            }
            Err(_) => ctx.net.add("net.frames.corrupt", 1),
        },
        FRAME_PING => {
            if let Some(q) = ctx.peers.get(peer) {
                let _ = q.push_control(OutFrame::Pong, Duration::from_millis(10));
            }
        }
        FRAME_PONG | FRAME_HELLO => {}
        _ => ctx.net.add("net.frames.corrupt", 1),
    }
}

/// Reads frames from an established connection until EOF, a read error,
/// a liveness timeout, or a stream desync. Corrupt payloads are counted
/// and skipped; only a desynchronised stream severs the connection.
fn reader_loop(mut stream: TcpStream, peer: NodeId, mut acc: FrameAccumulator, ctx: &ConnCtx) {
    let _ = stream.set_read_timeout(Some(ctx.liveness));
    loop {
        loop {
            match acc.next_frame_ref() {
                Ok(Some(payload)) => handle_payload(payload, peer, ctx),
                Ok(None) => break,
                Err(_) => {
                    // The length prefix itself is garbage: every byte
                    // after it is unframeable, so drop the connection.
                    ctx.net.add("net.frames.corrupt", 1);
                    return;
                }
            }
        }
        if ctx.stopping() {
            return;
        }
        match acc.read_from(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            // A liveness timeout surfaces as WouldBlock/TimedOut
            // depending on the platform; both mean the peer went silent.
            Err(_) => return,
        }
    }
}

/// Runs an established connection: registers the outbound queue, spawns
/// the writer, reads until the connection dies, then cleans up and does
/// the drop accounting. `acc` may already hold bytes read during the
/// handshake.
fn run_connection(
    stream: TcpStream,
    peer: NodeId,
    acc: FrameAccumulator,
    ctx: &ConnCtx,
    q: Arc<PeerQueue>,
) {
    if ctx.peers.register(peer, q.clone()) {
        ctx.net.add("fault.conn.restore", 1);
    }
    let writer = match stream.try_clone() {
        Ok(wstream) => {
            let wctx = ctx.clone();
            let wq = q.clone();
            Some(thread::spawn(move || writer_loop(wstream, &wq, &wctx)))
        }
        Err(_) => None,
    };
    reader_loop(stream, peer, acc, ctx);
    ctx.peers.unregister(peer, &q);
    if let Some(w) = writer {
        let _ = w.join();
    }
    if !ctx.stopping() {
        ctx.net.add("net.conn.dropped", 1);
        ctx.net.add("fault.conn.drop", 1);
    }
}

/// Handles one inbound connection: the first frame must be a valid Hello
/// naming the peer, everything after that is a normal connection. The
/// Hello must arrive within the liveness timeout; the wait wakes every
/// heartbeat so that shutdown never waits out a silent peer.
fn handle_accepted(mut stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(ctx.heartbeat.min(ctx.liveness)));
    let deadline = Instant::now() + ctx.liveness;
    let mut acc = FrameAccumulator::new(ctx.max_frame);
    let peer = loop {
        match acc.next_frame_ref() {
            Ok(Some(payload)) => match parse_hello(payload, ctx.num_nodes) {
                Some(peer) => break peer,
                None => {
                    ctx.net.add("net.frames.corrupt", 1);
                    return;
                }
            },
            Ok(None) => {}
            Err(_) => {
                ctx.net.add("net.frames.corrupt", 1);
                return;
            }
        }
        if ctx.stopping() || Instant::now() >= deadline {
            return;
        }
        match acc.read_from(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    };
    ctx.net.add("net.conn.accepted", 1);
    let q = PeerQueue::new(ctx.queue_capacity);
    run_connection(stream, peer, acc, &ctx, q);
}

/// Accepts inbound connections until shutdown, then joins their threads.
fn acceptor_loop(listener: TcpListener, ctx: ConnCtx) {
    let _ = listener.set_nonblocking(true);
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    while !ctx.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|c| !c.is_finished());
                let cctx = ctx.clone();
                conns.push(thread::spawn(move || handle_accepted(stream, cctx)));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
    for c in conns {
        let _ = c.join();
    }
}

fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// Dials `peer` forever: connect (with capped backoff + jitter on
/// failure), introduce ourselves with a Hello, run the connection, and
/// redial when it drops.
fn dialer_loop(
    peer: NodeId,
    addr: SocketAddr,
    ctx: &ConnCtx,
    backoff: &BackoffConfig,
    mut rng: u64,
) {
    let mut attempt: u32 = 0;
    while !ctx.stopping() {
        let stream = match TcpStream::connect_timeout(&addr, ctx.liveness) {
            Ok(s) => s,
            Err(_) => {
                ctx.net.add("net.conn.retries", 1);
                let delay = backoff.delay(attempt, &mut rng);
                attempt = attempt.saturating_add(1);
                sleep_interruptible(&ctx.stop, delay);
                continue;
            }
        };
        attempt = 0;
        ctx.net.add("net.conn.dialed", 1);
        let q = PeerQueue::new(ctx.queue_capacity);
        // The Hello must be the first frame on the wire; the queue is
        // fresh and empty, so this cannot block or shed.
        let _ = q.push_control(OutFrame::Hello(ctx.me), Duration::ZERO);
        run_connection(stream, peer, FrameAccumulator::new(ctx.max_frame), ctx, q);
    }
}

/// Control traffic keeps the ring alive and must not be shed lightly;
/// everything model-bearing is bulk.
fn is_control(msg: &FlMsg) -> bool {
    matches!(msg, FlMsg::AgeGossip { .. } | FlMsg::TokenPass(_))
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    tag: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap becomes a min-heap on (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The [`Env`] a TCP-deployed node runs against: wall-clock time mapped
/// 1:1 onto [`SimTime`], sends staged onto per-peer bounded queues.
struct TcpEnv {
    me: NodeId,
    num_nodes: usize,
    start: Instant,
    peers: Arc<PeerTable>,
    metrics: Metrics,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    liveness: Duration,
    /// Known addresses of peers not dialed at startup (elastic joiners,
    /// failover candidates); consulted on the first send to each.
    addr_book: HashMap<NodeId, SocketAddr>,
    /// Peers a dialer already runs for (startup peers plus on-demand).
    dialed: HashSet<NodeId>,
    ctx: ConnCtx,
    backoff: BackoffConfig,
    seed: u64,
    /// Dialer threads started on demand; joined at shutdown.
    dynamic: Vec<thread::JoinHandle<()>>,
}

impl TcpEnv {
    fn drop_disconnected(&mut self) {
        self.metrics.add_counter("fault.dropped", 1);
        self.metrics
            .add_counter_suffixed("fault.dropped.", "conn", 1);
    }

    /// First send to a peer that did not exist at startup (an elastic
    /// joiner spliced in mid-run, or a failover candidate): start a
    /// dialer for it if the address book knows it. The triggering message
    /// is still dropped — the connection is not up yet — and the protocol
    /// watchdogs retry, exactly as across a `conn.drop` fault window.
    fn dial_on_demand(&mut self, to: NodeId) {
        if self.dialed.contains(&to) {
            return;
        }
        let Some(&addr) = self.addr_book.get(&to) else {
            return;
        };
        self.dialed.insert(to);
        self.metrics.add_counter("net.conn.ondemand", 1);
        let ctx = self.ctx.clone();
        let backoff = self.backoff.clone();
        let seed = self.seed ^ (to as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.dynamic.push(thread::spawn(move || {
            dialer_loop(to, addr, &ctx, &backoff, seed)
        }));
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
        self.me
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn send(&mut self, to: NodeId, msg: FlMsg) {
        let bytes = msg.wire_size() as u64;
        self.metrics.add_counter("net.bytes", bytes);
        self.metrics
            .add_counter_suffixed("net.bytes.", msg.kind(), bytes);
        self.metrics.add_counter("net.messages", 1);
        let Some(q) = self.peers.get(to) else {
            // No live connection: the message is eaten exactly like a
            // `conn.drop` fault window in the simulator; the recovery
            // watchdogs are what heals the protocol. If the address book
            // knows this peer, a dialer starts now so the retry lands.
            self.dial_on_demand(to);
            self.drop_disconnected();
            return;
        };
        let outcome = if is_control(&msg) {
            q.push_control(OutFrame::Msg(msg), self.liveness)
        } else {
            q.push_bulk(OutFrame::Msg(msg))
        };
        match outcome {
            PushOutcome::Queued => {}
            PushOutcome::Shed => self.metrics.add_counter("net.queue.shed", 1),
            PushOutcome::Disconnected => self.drop_disconnected(),
        }
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(TimerEntry {
            at: Instant::now() + to_duration(delay),
            seq,
            tag,
        });
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
        self.metrics.span_enter(self.me as u32, name, at);
    }

    fn span_exit(&mut self, name: &'static str) {
        let at = self.now();
        self.metrics.span_exit(self.me as u32, name, at);
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
    let stop = Arc::new(AtomicBool::new(false));
    let peers = PeerTable::new();
    let net = SharedMetrics::new();
    let (tx, rx): (Sender<Inbound>, Receiver<Inbound>) = unbounded();
    let ctx = ConnCtx {
        me: cfg.me,
        num_nodes: cfg.num_nodes,
        peers: Arc::clone(&peers),
        inbox: tx,
        net: net.clone(),
        heartbeat: cfg.heartbeat,
        liveness: cfg.liveness_timeout,
        max_frame: cfg.max_frame,
        queue_capacity: cfg.queue_capacity,
        stop: Arc::clone(&stop),
    };
    let mut joins = Vec::new();
    if let Some(addr) = cfg.listen {
        let listener = TcpListener::bind(addr)?;
        let actx = ctx.clone();
        joins.push(thread::spawn(move || acceptor_loop(listener, actx)));
    }
    for &(peer, addr) in &cfg.peers {
        let dctx = ctx.clone();
        let backoff = cfg.backoff.clone();
        let seed = cfg.seed ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        joins.push(thread::spawn(move || {
            dialer_loop(peer, addr, &dctx, &backoff, seed)
        }));
    }
    if !cfg.connect_grace.is_zero() {
        thread::sleep(cfg.connect_grace);
    }
    let mut env = TcpEnv {
        me: cfg.me,
        num_nodes: cfg.num_nodes,
        start: Instant::now(),
        peers: Arc::clone(&peers),
        metrics: Metrics::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        liveness: cfg.liveness_timeout,
        addr_book: cfg.addr_book.iter().copied().collect(),
        dialed: cfg.peers.iter().map(|&(peer, _)| peer).collect(),
        ctx: ctx.clone(),
        backoff: cfg.backoff.clone(),
        seed: cfg.seed,
        dynamic: Vec::new(),
    };
    if cfg.rejoin {
        node.on_restart(&mut env);
    } else {
        node.on_start(&mut env);
    }
    let deadline = Instant::now() + run_for;
    loop {
        while let Some(entry) = env.timers.peek() {
            if entry.at <= Instant::now() {
                let tag = entry.tag;
                env.timers.pop();
                node.on_timer(&mut env, tag);
            } else {
                break;
            }
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = env.timers.peek().map_or(deadline, |e| e.at.min(deadline));
        let timeout = wake
            .saturating_duration_since(now)
            .min(Duration::from_millis(100));
        match rx.recv_timeout(timeout) {
            Ok((from, msg)) => node.on_message(&mut env, from, msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    stop.store(true, Ordering::Relaxed);
    peers.close_all();
    joins.append(&mut env.dynamic);
    for j in joins {
        let _ = j.join();
    }
    let end = env.now();
    let mut metrics = env.metrics;
    metrics.merge(&net.take());
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
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered() {
        let b = BackoffConfig {
            initial: Duration::from_millis(100),
            max: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.2,
        };
        let mut rng = 7u64;
        for attempt in 0..40 {
            let d = b.delay(attempt, &mut rng).as_secs_f64();
            let base = (0.1 * 2f64.powi(attempt as i32)).min(1.0);
            assert!(
                d >= base * 0.8 - 1e-9 && d <= base * 1.2 + 1e-9,
                "attempt {attempt}: {d} outside jitter band of {base}"
            );
        }
        // Deep attempts saturate at the cap (within jitter).
        let d = b.delay(1000, &mut rng).as_secs_f64();
        assert!(d <= 1.2 + 1e-9);
    }

    #[test]
    fn bulk_sheds_when_full_and_control_blocks_until_space() {
        let q = PeerQueue::new(2);
        assert!(matches!(q.push_bulk(OutFrame::Ping), PushOutcome::Queued));
        assert!(matches!(q.push_bulk(OutFrame::Ping), PushOutcome::Queued));
        assert!(matches!(q.push_bulk(OutFrame::Ping), PushOutcome::Shed));
        // Control waits for room: a consumer popping concurrently
        // unblocks it.
        let qc = Arc::clone(&q);
        let popper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            assert!(matches!(qc.pop(Duration::from_secs(1)), Popped::Frame(_)));
        });
        let outcome = q.push_control(OutFrame::Ping, Duration::from_secs(2));
        assert!(matches!(outcome, PushOutcome::Queued));
        popper.join().unwrap();
        // A timed-out control push sheds instead of deadlocking.
        let outcome = q.push_control(OutFrame::Ping, Duration::from_millis(20));
        assert!(matches!(outcome, PushOutcome::Shed));
    }

    #[test]
    fn closed_queue_reports_disconnected() {
        let q = PeerQueue::new(4);
        q.close();
        assert!(matches!(
            q.push_bulk(OutFrame::Ping),
            PushOutcome::Disconnected
        ));
        assert!(matches!(
            q.push_control(OutFrame::Ping, Duration::from_secs(1)),
            PushOutcome::Disconnected
        ));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Closed));
    }

    #[test]
    fn hello_frames_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        encode_frame(&OutFrame::Hello(3), &mut buf);
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&buf);
        let payload = acc.next_frame().unwrap().unwrap();
        assert_eq!(parse_hello(&payload, 8), Some(3));
        assert_eq!(parse_hello(&payload, 3), None, "id out of range");
        assert_eq!(parse_hello(&[FRAME_PING], 8), None);
        assert_eq!(parse_hello(&[], 8), None);
    }

    #[test]
    fn msg_frames_round_trip_through_the_envelope() {
        let msg = FlMsg::AgeGossip {
            age: 4.5,
            server_idx: 1,
        };
        let mut buf = Vec::new();
        encode_frame(&OutFrame::Msg(msg), &mut buf);
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&buf);
        let payload = acc.next_frame_ref().unwrap().unwrap();
        assert_eq!(payload[0], FRAME_MSG);
        let back = codec::decode(&payload[1..]).unwrap();
        assert!(matches!(back, FlMsg::AgeGossip { server_idx: 1, .. }));
    }
}
