//! The connection layer under [`run_node`](super::run_node): the per-peer
//! send path ([`PeerQueue`]), the table of live connections, and the
//! threads that own a socket — acceptor, dialer, reader and the backlog
//! writer.
//!
//! A frame is encoded and written by the thread that sends it. It goes
//! straight to the socket when the peer's queue is empty and no one else
//! is writing; the queue holds encoded frames only when the socket is
//! busy, and the connection's writer thread drains them. Whoever writes
//! holds the queue's `writing` flag, so frames never interleave on the
//! wire. Readers only read: the node thread's inline send and the
//! writer thread are the only writers of a socket.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use spyker_core::codec::{self, FrameAccumulator};
use spyker_core::msg::FlMsg;
use spyker_simnet::metrics::Metrics;
use spyker_simnet::runtime::NodeId;

use super::backoff_delay;

/// Transport envelope kinds (first payload byte inside a length-prefixed
/// frame).
pub(super) const FRAME_MSG: u8 = 0;
pub(super) const FRAME_HELLO: u8 = 1;
pub(super) const FRAME_PING: u8 = 2;

/// How long a sending thread may spend writing one frame before it hands
/// the unwritten tail to the connection's writer thread. It is also the
/// socket's write timeout, so a write the socket does not take at all
/// comes back after it too — rounded up to the kernel's timer tick, which
/// is a few milliseconds on common configurations.
pub(super) const INLINE_BOUND: Duration = Duration::from_millis(1);

/// One envelope to encode.
pub(super) enum OutFrame<'a> {
    Msg(&'a FlMsg),
    Hello(NodeId),
    Ping,
}

/// One encoded envelope on its way out: `bytes[sent..]` is not on the
/// wire yet.
pub(super) struct Frame {
    bytes: Vec<u8>,
    sent: usize,
    msg: bool,
}

impl Frame {
    /// Serializes one envelope as `[u32 LE len][kind][body]` into `out`,
    /// a staging buffer the caller may have rented from a pool.
    pub(super) fn encode(frame: &OutFrame, mut out: Vec<u8>) -> Self {
        out.clear();
        out.extend_from_slice(&[0u8; 4]);
        match frame {
            OutFrame::Msg(msg) => {
                out.push(FRAME_MSG);
                codec::encode_into(msg, &mut out);
            }
            OutFrame::Hello(id) => {
                out.push(FRAME_HELLO);
                out.extend_from_slice(&(*id as u32).to_le_bytes());
            }
            OutFrame::Ping => out.push(FRAME_PING),
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        Self {
            bytes: out,
            sent: 0,
            msg: matches!(frame, OutFrame::Msg(_)),
        }
    }

    fn done(&self) -> bool {
        self.sent == self.bytes.len()
    }

    /// What losing this frame with its connection costs: one counted drop
    /// for a protocol message, none for the transport's own frames.
    fn lost(&self) -> u64 {
        u64::from(self.msg)
    }
}

/// The payload of a valid Hello frame, if that is what this is.
fn parse_hello(payload: &[u8], num_nodes: usize) -> Option<NodeId> {
    if payload.len() != 5 || payload[0] != FRAME_HELLO {
        return None;
    }
    let id = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
    (id < num_nodes).then_some(id)
}

/// What became of a frame handed to [`PeerQueue::send`].
pub(super) enum Sent {
    /// The calling thread wrote all of it; the buffer comes back for
    /// reuse.
    Written(Vec<u8>),
    /// It is on the queue, possibly as the tail of a write the calling
    /// thread started; the writer thread finishes it.
    Queued,
    /// The queue was full: at once for bulk, after the wait for control.
    Shed,
    /// The connection is closed, or broke under this write. This many
    /// message frames were lost with it: this one if it is a message,
    /// plus whatever the queue still held.
    Lost(u64),
}

struct QueueState {
    /// Frames waiting for the writer thread, oldest first. A tail that a
    /// sender started is at the front: its first bytes are on the wire.
    q: VecDeque<Frame>,
    closed: bool,
    /// A thread is writing to the socket — a sender inline, or the writer
    /// thread. It is the only one that may.
    writing: bool,
    /// When the socket last took bytes; the writer pings a heartbeat
    /// after it.
    last_write: Instant,
    /// Control senders waiting for room.
    waiting: usize,
}

/// The send side of one connection: a bounded queue of encoded frames
/// and the socket they go out on. The block-or-shed policy is chosen by
/// the caller per message class.
pub(super) struct PeerQueue {
    state: Mutex<QueueState>,
    /// Wakes the writer thread: a frame was queued while no one was
    /// writing, or the queue closed.
    ready: Condvar,
    /// Wakes control senders waiting for room.
    room: Condvar,
    cap: usize,
    stream: TcpStream,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

fn wait_on<'a>(
    cv: &Condvar,
    st: MutexGuard<'a, QueueState>,
    timeout: Duration,
) -> MutexGuard<'a, QueueState> {
    cv.wait_timeout(st, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Writes `frame` from its cursor on, until all of it is out or
/// `give_up(sent)` — asked after every write that left some behind — says
/// to stop. `Err` only when the socket broke.
fn write_frame(
    stream: &TcpStream,
    frame: &mut Frame,
    mut give_up: impl FnMut(usize) -> bool,
) -> io::Result<()> {
    let mut out = stream;
    while !frame.done() {
        match out.write(&frame.bytes[frame.sent..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => frame.sent += n,
            // The write timeout passed with no room in the socket.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        if !frame.done() && give_up(frame.sent) {
            break;
        }
    }
    Ok(())
}

impl PeerQueue {
    /// The send side of the connection on `stream`, holding at most `cap`
    /// frames.
    fn new(stream: &TcpStream, cap: usize) -> io::Result<Arc<Self>> {
        let stream = stream.try_clone()?;
        stream.set_write_timeout(Some(INLINE_BOUND))?;
        let _ = stream.set_nodelay(true);
        Ok(Arc::new(Self {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
                writing: false,
                last_write: Instant::now(),
                waiting: 0,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            cap: cap.max(1),
            stream,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        relock(self.state.lock())
    }

    /// Sends `frame` from the calling thread. When the queue is empty and
    /// no one is writing, the caller writes it to the socket itself for at
    /// most [`INLINE_BOUND`] and queues whatever the socket did not take
    /// in that time at the front, for the writer thread. Otherwise the
    /// frame is queued whole under the class policy `wait`: `None` sheds
    /// it at once when the queue is full (bulk), `Some(d)` waits up to `d`
    /// for room (control). A frame none of which went out inline gets the
    /// same policy.
    pub(super) fn send(&self, mut frame: Frame, wait: Option<Duration>) -> Sent {
        let mut st = self.lock();
        if st.closed {
            return Sent::Lost(frame.lost());
        }
        if !st.writing && st.q.is_empty() {
            st.writing = true;
            drop(st);
            let deadline = Instant::now() + INLINE_BOUND;
            let wrote = write_frame(&self.stream, &mut frame, |_| Instant::now() >= deadline);
            st = self.lock();
            st.writing = false;
            if frame.sent > 0 {
                st.last_write = Instant::now();
            }
            if wrote.is_err() {
                drop(st);
                return Sent::Lost(frame.lost() + self.close());
            }
            if frame.done() {
                if !st.q.is_empty() {
                    self.ready.notify_one();
                }
                return Sent::Written(frame.bytes);
            }
            if frame.sent > 0 {
                if st.closed {
                    return Sent::Lost(frame.lost());
                }
                // Its first bytes are on the wire, so the rest goes next,
                // whatever was queued meanwhile, and is never shed.
                st.q.push_front(frame);
                self.ready.notify_one();
                return Sent::Queued;
            }
        }
        self.enqueue(st, frame, wait)
    }

    /// Queues a whole frame under the class policy (see [`Self::send`]).
    fn enqueue(
        &self,
        mut st: MutexGuard<'_, QueueState>,
        frame: Frame,
        wait: Option<Duration>,
    ) -> Sent {
        if let Some(wait) = wait {
            let deadline = Instant::now() + wait;
            st.waiting += 1;
            while st.q.len() >= self.cap && !st.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                st = wait_on(&self.room, st, deadline - now);
            }
            st.waiting -= 1;
        }
        if st.closed {
            return Sent::Lost(frame.lost());
        }
        if st.q.len() >= self.cap {
            return Sent::Shed;
        }
        st.q.push_back(frame);
        if !st.writing {
            self.ready.notify_one();
        }
        Sent::Queued
    }

    /// The writer thread's wait: the next queued frame, or a PING once a
    /// heartbeat has passed without the socket taking bytes; `None` once
    /// the queue is closed. The writer holds `writing` from here until its
    /// next call, which says with `wrote` that it finished the frame.
    fn next_for_writer(
        &self,
        wrote: bool,
        heartbeat: Duration,
        local: &mut Metrics,
    ) -> Option<Frame> {
        let mut st = self.lock();
        if wrote {
            st.writing = false;
            st.last_write = Instant::now();
        }
        loop {
            if st.closed {
                return None;
            }
            let mut idle_for = heartbeat;
            if !st.writing {
                if let Some(frame) = st.q.pop_front() {
                    if st.waiting > 0 {
                        self.room.notify_all();
                    }
                    st.writing = true;
                    return Some(frame);
                }
                let idle = st.last_write.elapsed();
                if idle >= heartbeat {
                    st.writing = true;
                    local.add_counter("net.heartbeats", 1);
                    return Some(Frame::encode(&OutFrame::Ping, Vec::new()));
                }
                idle_for = heartbeat - idle;
            }
            st = wait_on(&self.ready, st, idle_for);
        }
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Closes the queue, wakes every waiter and shuts the socket down.
    /// Returns the message frames the queue still held, a started tail
    /// included: they are lost with the connection. Only the first call
    /// finds any.
    fn close(&self) -> u64 {
        let lost = {
            let mut st = self.lock();
            if st.closed {
                return 0;
            }
            st.closed = true;
            self.ready.notify_all();
            self.room.notify_all();
            st.q.drain(..).map(|f| f.lost()).sum()
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        lost
    }
}

struct PeerTableInner {
    queues: HashMap<NodeId, Arc<PeerQueue>>,
    /// Peers whose connection dropped at some point; used to count a
    /// re-establishment as `fault.conn.restore`.
    dropped: HashSet<NodeId>,
}

/// Live outbound queues, keyed by peer id.
pub(super) struct PeerTable {
    inner: Mutex<PeerTableInner>,
}

impl PeerTable {
    pub(super) fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PeerTableInner {
                queues: HashMap::new(),
                dropped: HashSet::new(),
            }),
        })
    }

    /// Installs `q` as the live queue for `peer`, closing any stale one.
    /// Returns whether this heals a previously-dropped connection, and
    /// the message frames the stale queue lost.
    fn register(&self, peer: NodeId, q: Arc<PeerQueue>) -> (bool, u64) {
        let mut inner = relock(self.inner.lock());
        let restored = inner.dropped.remove(&peer);
        let lost = inner.queues.insert(peer, q).map_or(0, |old| old.close());
        (restored, lost)
    }

    /// Removes `peer`'s queue if it is still `q` (a reconnect may already
    /// have replaced it), marks the peer as dropped and closes `q`,
    /// returning the message frames it lost.
    fn unregister(&self, peer: NodeId, q: &Arc<PeerQueue>) -> u64 {
        let mut inner = relock(self.inner.lock());
        let current = inner
            .queues
            .get(&peer)
            .is_some_and(|cur| Arc::ptr_eq(cur, q));
        if current {
            inner.queues.remove(&peer);
        }
        inner.dropped.insert(peer);
        q.close()
    }

    pub(super) fn get(&self, peer: NodeId) -> Option<Arc<PeerQueue>> {
        relock(self.inner.lock()).queues.get(&peer).cloned()
    }

    /// Closes every connection at shutdown. What their queues still held
    /// is not counted: the run is over, not the connection.
    pub(super) fn close_all(&self) {
        let inner = relock(self.inner.lock());
        for q in inner.queues.values() {
            q.close();
        }
    }
}

/// Metrics shared by the connection threads, merged into the node's
/// metrics at shutdown. A connection's reader and writer count in their
/// own `Metrics` and merge them once, when the connection ends.
#[derive(Clone)]
pub(super) struct SharedMetrics(Arc<Mutex<Metrics>>);

impl SharedMetrics {
    pub(super) fn new() -> Self {
        Self(Arc::new(Mutex::new(Metrics::new())))
    }

    /// Counts for the acceptor and dialer, before a connection exists.
    fn add(&self, name: &str, delta: u64) {
        relock(self.0.lock()).add_counter(name, delta);
    }

    /// Merges what one connection thread counted by itself.
    fn merge(&self, local: &Metrics) {
        relock(self.0.lock()).merge(local);
    }

    pub(super) fn take(&self) -> Metrics {
        std::mem::replace(&mut relock(self.0.lock()), Metrics::new())
    }
}

/// Counts one frame the socket took whole.
pub(super) fn count_written(m: &mut Metrics, frame: &[u8]) {
    m.add_counter("net.frames.sent", 1);
    m.add_counter("net.bytes.wire", frame.len() as u64);
}

/// Counts `n` messages lost for want of a connection.
pub(super) fn count_lost(m: &mut Metrics, n: u64) {
    if n > 0 {
        m.count_dropped("conn", n);
    }
}

/// Everything a connection thread needs; cheap to clone.
#[derive(Clone)]
pub(super) struct ConnCtx {
    pub(super) me: NodeId,
    pub(super) num_nodes: usize,
    pub(super) peers: Arc<PeerTable>,
    pub(super) inbox: Sender<(NodeId, FlMsg)>,
    pub(super) net: SharedMetrics,
    pub(super) heartbeat: Duration,
    pub(super) liveness: Duration,
    pub(super) queue_capacity: usize,
    pub(super) stop: Arc<AtomicBool>,
}

impl ConnCtx {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// The connection's writer thread: drains what senders left on the
/// queue, and pings after a heartbeat without writes. Exits when the
/// queue closes, the socket breaks, or the socket takes nothing for the
/// liveness timeout; a frame it could not finish is lost with the
/// connection.
fn writer_loop(q: &PeerQueue, ctx: &ConnCtx) -> Metrics {
    let mut local = Metrics::new();
    let mut wrote = false;
    while let Some(mut frame) = q.next_for_writer(wrote, ctx.heartbeat, &mut local) {
        let (mut at, mut progress) = (frame.sent, Instant::now());
        let result = write_frame(&q.stream, &mut frame, |sent| {
            if sent > at {
                (at, progress) = (sent, Instant::now());
            }
            progress.elapsed() >= ctx.liveness || q.is_closed()
        });
        wrote = result.is_ok() && frame.done();
        if wrote {
            count_written(&mut local, &frame.bytes);
            continue;
        }
        let lost = frame.lost() + q.close();
        if !ctx.stopping() {
            count_lost(&mut local, lost);
        }
        break;
    }
    local
}

/// One decoded envelope from the wire.
fn handle_payload(payload: &[u8], peer: NodeId, ctx: &ConnCtx, local: &mut Metrics) {
    local.add_counter("net.frames.recv", 1);
    let Some((&kind, body)) = payload.split_first() else {
        local.add_counter("net.frames.corrupt", 1);
        return;
    };
    match kind {
        FRAME_MSG => match codec::decode(body) {
            Ok(msg) => {
                let _ = ctx.inbox.send((peer, msg));
            }
            Err(_) => local.add_counter("net.frames.corrupt", 1),
        },
        FRAME_PING | FRAME_HELLO => {}
        _ => local.add_counter("net.frames.corrupt", 1),
    }
}

/// Reads `stream` into `acc` and hands each complete payload to
/// `on_frame` until it returns `false`, the peer closes or goes silent
/// for the liveness timeout, a read fails, the stream desynchronises, the
/// run stops, or `deadline` passes. Reads wake at least every
/// min(heartbeat, liveness), so shutdown never waits out a silent peer.
fn read_frames(
    stream: &mut TcpStream,
    acc: &mut FrameAccumulator,
    ctx: &ConnCtx,
    deadline: Option<Instant>,
    local: &mut Metrics,
    mut on_frame: impl FnMut(&[u8], &mut Metrics) -> bool,
) {
    let _ = stream.set_read_timeout(Some(ctx.heartbeat.min(ctx.liveness)));
    let mut heard = Instant::now();
    loop {
        loop {
            match acc.next_frame_ref() {
                Ok(Some(payload)) => {
                    if !on_frame(payload, local) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // The length prefix itself is garbage: every byte
                    // after it is unframeable, so drop the connection.
                    local.add_counter("net.frames.corrupt", 1);
                    return;
                }
            }
        }
        if ctx.stopping()
            || heard.elapsed() >= ctx.liveness
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            return;
        }
        match acc.read_from(stream) {
            Ok(0) => return,
            Ok(_) => heard = Instant::now(),
            // The read timeout surfaces as WouldBlock or TimedOut
            // depending on the platform.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Runs an established connection: sends the Hello first if this side
/// dialed, registers the send path, spawns the writer, reads until the
/// connection dies, then cleans up and does the drop accounting. `acc`
/// may already hold bytes read during the handshake.
fn run_connection(
    mut stream: TcpStream,
    peer: NodeId,
    mut acc: FrameAccumulator,
    ctx: &ConnCtx,
    hello: bool,
) {
    let Ok(q) = PeerQueue::new(&stream, ctx.queue_capacity) else {
        return;
    };
    let mut local = Metrics::new();
    if hello {
        // Not registered yet, so nothing can go out before it.
        let hello = Frame::encode(&OutFrame::Hello(ctx.me), Vec::new());
        if let Sent::Written(frame) = q.send(hello, None) {
            count_written(&mut local, &frame);
        }
    }
    let (restored, stale) = ctx.peers.register(peer, Arc::clone(&q));
    if restored {
        local.add_counter("fault.conn.restore", 1);
    }
    count_lost(&mut local, stale);
    let writer = {
        let (q, ctx) = (Arc::clone(&q), ctx.clone());
        thread::spawn(move || writer_loop(&q, &ctx))
    };
    read_frames(
        &mut stream,
        &mut acc,
        ctx,
        None,
        &mut local,
        |payload, local| {
            handle_payload(payload, peer, ctx, local);
            true
        },
    );
    let lost = ctx.peers.unregister(peer, &q);
    if let Ok(written) = writer.join() {
        local.merge(&written);
    }
    if !ctx.stopping() {
        count_lost(&mut local, lost);
        local.add_counter("net.conn.dropped", 1);
        local.add_counter("fault.conn.drop", 1);
    }
    ctx.net.merge(&local);
}

/// Handles one inbound connection: the first frame must be a valid Hello
/// naming the peer, everything after that is a normal connection. The
/// Hello must arrive within the liveness timeout of the accept, however
/// the peer trickles its bytes.
fn handle_accepted(mut stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_nonblocking(false);
    let deadline = Instant::now() + ctx.liveness;
    let mut acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
    let mut local = Metrics::new();
    let mut peer = None;
    read_frames(
        &mut stream,
        &mut acc,
        &ctx,
        Some(deadline),
        &mut local,
        |payload, local| {
            peer = parse_hello(payload, ctx.num_nodes);
            if peer.is_none() {
                local.add_counter("net.frames.corrupt", 1);
            }
            false
        },
    );
    match peer {
        Some(peer) => {
            ctx.net.add("net.conn.accepted", 1);
            run_connection(stream, peer, acc, &ctx, false);
        }
        None => ctx.net.merge(&local),
    }
}

/// Accepts inbound connections until shutdown, then joins their threads.
pub(super) fn acceptor_loop(listener: TcpListener, ctx: ConnCtx) {
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
/// failure, drawn from the stream `rng`), introduce ourselves with a
/// Hello, run the connection, and redial when it drops.
pub(super) fn dialer_loop(peer: NodeId, addr: SocketAddr, ctx: &ConnCtx, mut rng: u64) {
    let mut attempt: u32 = 0;
    while !ctx.stopping() {
        let stream = match TcpStream::connect_timeout(&addr, ctx.liveness) {
            Ok(s) => s,
            Err(_) => {
                ctx.net.add("net.conn.retries", 1);
                let delay = backoff_delay(attempt, &mut rng);
                attempt = attempt.saturating_add(1);
                sleep_interruptible(&ctx.stop, delay);
                continue;
            }
        };
        attempt = 0;
        ctx.net.add("net.conn.dialed", 1);
        let acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
        run_connection(stream, peer, acc, ctx, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_core::params::ParamVec;

    /// Both ends of a fresh loopback connection.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    fn msg_frame() -> Frame {
        let msg = FlMsg::ModelToClient {
            params: ParamVec::zeros(4),
            age: 1.0,
            lr: 0.1,
        };
        Frame::encode(&OutFrame::Msg(&msg), Vec::new())
    }

    fn ping() -> Frame {
        Frame::encode(&OutFrame::Ping, Vec::new())
    }

    /// A queue whose socket is busy, so every send queues.
    fn busy_queue(cap: usize) -> (Arc<PeerQueue>, TcpStream) {
        let (near, far) = loopback();
        let q = PeerQueue::new(&near, cap).unwrap();
        q.lock().writing = true;
        (q, far)
    }

    #[test]
    fn bulk_sheds_when_full_and_control_blocks_until_space() {
        let (q, _far) = busy_queue(2);
        assert!(matches!(q.send(ping(), None), Sent::Queued));
        assert!(matches!(q.send(ping(), None), Sent::Queued));
        assert!(matches!(q.send(ping(), None), Sent::Shed));
        // Control waits for room: a writer popping concurrently unblocks
        // it.
        let qc = Arc::clone(&q);
        let popper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            qc.lock().writing = false;
            let mut local = Metrics::new();
            assert!(qc
                .next_for_writer(false, Duration::from_secs(1), &mut local)
                .is_some());
        });
        let outcome = q.send(ping(), Some(Duration::from_secs(2)));
        assert!(matches!(outcome, Sent::Queued));
        popper.join().unwrap();
        // A timed-out control push sheds instead of deadlocking.
        let outcome = q.send(ping(), Some(Duration::from_millis(20)));
        assert!(matches!(outcome, Sent::Shed));
    }

    #[test]
    fn closed_queue_reports_disconnected() {
        let (near, _far) = loopback();
        let q = PeerQueue::new(&near, 4).unwrap();
        q.close();
        assert!(matches!(q.send(msg_frame(), None), Sent::Lost(1)));
        assert!(matches!(
            q.send(msg_frame(), Some(Duration::from_secs(1))),
            Sent::Lost(1)
        ));
        assert!(matches!(q.send(ping(), None), Sent::Lost(0)));
        let mut local = Metrics::new();
        assert!(q
            .next_for_writer(false, Duration::from_millis(1), &mut local)
            .is_none());
    }

    fn test_ctx() -> ConnCtx {
        ConnCtx {
            me: 0,
            num_nodes: 2,
            peers: PeerTable::new(),
            inbox: crossbeam::channel::unbounded().0,
            net: SharedMetrics::new(),
            heartbeat: Duration::from_secs(5),
            liveness: Duration::from_secs(5),
            queue_capacity: 8,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn frames_lost_with_a_dropped_connection_are_counted() {
        let (q, _far) = busy_queue(8);
        // A half-written message ahead of two whole ones and a ping.
        let mut tail = msg_frame();
        tail.sent = 3;
        q.lock().q.push_back(tail);
        assert!(matches!(q.send(msg_frame(), None), Sent::Queued));
        assert!(matches!(q.send(ping(), None), Sent::Queued));
        assert!(matches!(q.send(msg_frame(), None), Sent::Queued));
        assert_eq!(q.close(), 3, "every message frame, the tail included");
        assert_eq!(q.close(), 0, "a second close finds nothing");

        // A connection that drops with messages queued counts each as
        // `fault.dropped.conn`, unless the run is over.
        for stopping in [false, true] {
            let ctx = test_ctx();
            let (near, far) = loopback();
            let run = {
                let ctx = ctx.clone();
                let acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
                thread::spawn(move || run_connection(near, 1, acc, &ctx, false))
            };
            let q = loop {
                if let Some(q) = ctx.peers.get(1) {
                    break q;
                }
                thread::sleep(Duration::from_millis(1));
            };
            // As if a send were stuck on the socket, so these two queue.
            q.lock().writing = true;
            assert!(matches!(q.send(msg_frame(), None), Sent::Queued));
            assert!(matches!(q.send(msg_frame(), None), Sent::Queued));
            ctx.stop.store(stopping, Ordering::Relaxed);
            drop(far);
            run.join().unwrap();
            let m = ctx.net.take();
            let want = if stopping { 0 } else { 2 };
            assert_eq!(m.counter("fault.dropped"), want);
            assert_eq!(m.counter("fault.dropped.conn"), want);
        }
    }

    #[test]
    fn an_inline_write_that_breaks_loses_its_frame() {
        let (near, _far) = loopback();
        let q = PeerQueue::new(&near, 4).unwrap();
        near.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(q.send(msg_frame(), None), Sent::Lost(1)));
        assert!(q.is_closed());
    }

    #[test]
    fn an_unwritten_tail_goes_out_before_later_frames() {
        let (near, mut far) = loopback();
        let q = PeerQueue::new(&near, 4).unwrap();
        let mut first = msg_frame();
        let whole = first.bytes.clone();
        // What a sender leaves when the socket took only part of it.
        first.sent = 5;
        (&near).write_all(&whole[..5]).unwrap();
        q.lock().q.push_back(first);
        assert!(matches!(q.send(msg_frame(), None), Sent::Queued));
        let ctx_q = Arc::clone(&q);
        let writer = thread::spawn(move || {
            let mut local = Metrics::new();
            let mut wrote = false;
            for _ in 0..2 {
                let mut f = ctx_q
                    .next_for_writer(wrote, Duration::from_secs(5), &mut local)
                    .unwrap();
                write_frame(&ctx_q.stream, &mut f, |_| false).unwrap();
                wrote = true;
            }
        });
        writer.join().unwrap();
        let mut acc = FrameAccumulator::new(1 << 20);
        let mut seen = 0;
        while seen < 2 {
            acc.read_from(&mut far).unwrap();
            while let Some(payload) = acc.next_frame_ref().unwrap() {
                assert_eq!(payload[0], FRAME_MSG);
                assert!(codec::decode(&payload[1..]).is_ok());
                seen += 1;
            }
        }
    }

    #[test]
    fn hello_frames_round_trip_and_reject_garbage() {
        let buf = Frame::encode(&OutFrame::Hello(3), Vec::new()).bytes;
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
        let buf = Frame::encode(&OutFrame::Msg(&msg), Vec::new()).bytes;
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&buf);
        let payload = acc.next_frame_ref().unwrap().unwrap();
        assert_eq!(payload[0], FRAME_MSG);
        let back = codec::decode(&payload[1..]).unwrap();
        assert!(matches!(back, FlMsg::AgeGossip { server_idx: 1, .. }));
    }
}
