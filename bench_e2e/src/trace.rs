//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each crate's public API.
//!
//! Nothing in the program under test knows about this module. A traced
//! repetition wraps every actor in a [`TracedNode`], hands its handlers a
//! [`TracedEnv`], wraps every trainer in a [`TracedTrainer`], and brackets
//! the run loop, probes and oracle taps with [`span`]. Spans land in a
//! per-thread in-memory recorder ([`start`] / [`finish`]) and are written
//! out once the run is over. The untraced repetitions install none of
//! this, so the end-to-end numbers pay nothing for it.

use std::any::Any;
use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::training::LocalTrainer;
use spyker_simnet::{Env, Node, NodeId, SimTime};

/// What a span brackets. The name fixes the layer the span's self time is
/// charged to (see [`Name::as_str`]: the prefix is the crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// `Simulation::run*` (DES) or `tcp::run_node` (one per node thread).
    Loop,
    /// A server actor's handler (`on_start`/`on_message`/`on_timer`).
    Server,
    /// A client actor's handler.
    Client,
    /// `LocalTrainer::train`.
    Train,
    /// `Evaluator::evaluate`.
    Eval,
    /// The periodic probe closure of `run_with_probe`.
    Probe,
    /// `Env::send`.
    Send,
    /// `Env::set_timer`.
    Timer,
    /// `Env::busy`.
    Busy,
    /// `Env::add_counter*` / `observe` / `gauge_set` / `record` / `span_*`.
    Metric,
    /// One pass of the oracle suite from the event tap.
    Oracle,
}

impl Name {
    /// Every name, for per-name aggregation.
    pub const ALL: [Name; 11] = [
        Name::Loop,
        Name::Server,
        Name::Client,
        Name::Train,
        Name::Eval,
        Name::Probe,
        Name::Send,
        Name::Timer,
        Name::Busy,
        Name::Metric,
        Name::Oracle,
    ];

    /// The name as written to the spans file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Loop => "loop",
            Name::Server => "core.server",
            Name::Client => "core.client",
            Name::Train => "models.train",
            Name::Eval => "models.eval",
            Name::Probe => "experiments.probe",
            Name::Send => "env.send",
            Name::Timer => "env.set_timer",
            Name::Busy => "env.busy",
            Name::Metric => "obs.metric",
            Name::Oracle => "simtest.oracle",
        }
    }
}

/// "No parent" / "no update" marker.
pub const NONE: u32 = u32::MAX;

/// One recorded span. `idx` is its position in the thread's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the enclosing span on the same thread, or [`NONE`].
    pub parent: u32,
    /// What was bracketed.
    pub name: Name,
    /// The client update this work belongs to (`(client node id + 1) << 32
    /// | round`), shared by the client round that produced the update and
    /// the server handler that consumed it; 0 for work outside any update.
    pub update: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on the calling thread. Threads of one run share
/// `epoch` so their timestamps are comparable.
pub fn start(epoch: Instant) {
    RECORDER.with_borrow_mut(|r| {
        *r = Some(Recorder {
            epoch,
            // Virtual memory only until touched; spares the busiest
            // workload (1.7 M spans) every reallocation of its list.
            spans: Vec::with_capacity(1 << 21),
            stack: Vec::new(),
        });
    });
}

/// Stops recording on the calling thread and returns its spans (empty if
/// [`start`] was never called here).
pub fn finish() -> Vec<Span> {
    RECORDER
        .with_borrow_mut(Option::take)
        .map_or_else(Vec::new, |r| r.spans)
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard(());

/// Opens a span that inherits the enclosing span's update id. A no-op on
/// threads that are not recording.
pub fn span(name: Name) -> Guard {
    enter(name, None)
}

/// Opens a span tagged with `update`.
pub fn span_for(name: Name, update: u64) -> Guard {
    enter(name, Some(update))
}

fn enter(name: Name, update: Option<u64>) -> Guard {
    RECORDER.with_borrow_mut(|r| {
        let Some(r) = r else { return };
        let parent = r.stack.last().copied().unwrap_or(NONE);
        let update = update.unwrap_or_else(|| r.spans.get(parent as usize).map_or(0, |p| p.update));
        r.stack.push(r.spans.len() as u32);
        r.spans.push(Span {
            parent,
            name,
            update,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to the span being measured.
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.last_mut().expect("just pushed").start_ns = now;
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with_borrow_mut(|r| {
            let Some(r) = r else { return };
            let now = r.epoch.elapsed().as_nanos() as u64;
            if let Some(idx) = r.stack.pop() {
                r.spans[idx as usize].end_ns = now;
            }
        });
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one parent never overlap (one thread, strictly
/// nested), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(parent) = out.get_mut(s.parent as usize) {
            *parent = parent.saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Calls, total self time and individual durations of the spans of one
/// name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Every span's full duration in microseconds, ascending.
    pub durs_us: Vec<f64>,
}

/// Aggregates `threads` (one span list per thread) by name, indexed like
/// [`Name::ALL`].
pub fn by_name(threads: &[Vec<Span>]) -> Vec<NameStats> {
    let mut out = vec![NameStats::default(); Name::ALL.len()];
    for spans in threads {
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let slot = &mut out[span.name as usize];
            slot.calls += 1;
            slot.self_s += self_ns as f64 * 1e-9;
            slot.durs_us.push(span.dur_ns() as f64 * 1e-3);
        }
    }
    for slot in &mut out {
        slot.durs_us.sort_by(f64::total_cmp);
    }
    out
}

/// Writes the spans as tab-separated `thread idx parent update start_ns
/// end_ns name` lines under a header; `parent` is `-` for a root span.
///
/// # Errors
///
/// Returns any I/O error of `out`.
pub fn write_tsv(threads: &[Vec<Span>], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "thread\tidx\tparent\tupdate\tstart_ns\tend_ns\tname")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (idx, s) in spans.iter().enumerate() {
            write!(out, "{thread}\t{idx}\t")?;
            if s.parent == NONE {
                write!(out, "-")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            writeln!(
                out,
                "\t{}\t{}\t{}\t{}",
                s.update,
                s.start_ns,
                s.end_ns,
                s.name.as_str()
            )?;
        }
    }
    Ok(())
}

/// Which handler span a [`TracedNode`] opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A server: update ids come from the sender of each client update.
    Server,
    /// A client: update ids count its own training rounds.
    Client,
}

/// Times every handler of the wrapped actor and hands it a [`TracedEnv`].
///
/// `as_any`/`as_any_mut` pass through to the wrapped actor, so probes and
/// oracles that downcast to `SpykerServer`/`CohortClient` keep working.
pub struct TracedNode {
    inner: Box<dyn Node<FlMsg>>,
    role: Role,
    /// Server: client updates received so far, per sender node id.
    /// Client: slot 0 counts the rounds trained so far.
    rounds: Vec<u32>,
}

impl TracedNode {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Node<FlMsg>>, role: Role) -> Self {
        Self {
            inner,
            role,
            rounds: vec![0],
        }
    }

    fn name(&self) -> Name {
        match self.role {
            Role::Server => Name::Server,
            Role::Client => Name::Client,
        }
    }

    /// The update a delivery belongs to. Links are FIFO and the traced
    /// workloads inject no loss, so the `k`-th update a server receives
    /// from a client is that client's `k`-th round.
    fn update_of(&mut self, me: NodeId, from: NodeId, msg: &FlMsg) -> u64 {
        let (client, slot) = match (self.role, msg) {
            (Role::Client, FlMsg::ModelToClient { .. }) => (me, 0),
            (Role::Server, FlMsg::ClientUpdate { .. } | FlMsg::EncodedUpdate { .. }) => {
                (from, from)
            }
            _ => return 0,
        };
        if self.rounds.len() <= slot {
            self.rounds.resize(slot + 1, 0);
        }
        self.rounds[slot] += 1;
        ((client as u64 + 1) << 32) | u64::from(self.rounds[slot])
    }
}

impl Node<FlMsg> for TracedNode {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        let _s = span_for(self.name(), 0);
        self.inner.on_start(&mut TracedEnv { inner: env });
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let update = self.update_of(env.me(), from, &msg);
        let _s = span_for(self.name(), update);
        self.inner
            .on_message(&mut TracedEnv { inner: env }, from, msg);
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        let _s = span_for(self.name(), 0);
        self.inner.on_timer(&mut TracedEnv { inner: env }, tag);
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        let _s = span_for(self.name(), 0);
        self.inner.on_restart(&mut TracedEnv { inner: env });
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Times every effect a handler issues: `send`/`set_timer`/`busy` are the
/// transport (network model + scheduler push in the DES, frame + queue
/// push over TCP), everything else is the metrics registry. Pure getters
/// are forwarded untimed.
pub struct TracedEnv<'a> {
    inner: &'a mut dyn Env<FlMsg>,
}

impl Env<FlMsg> for TracedEnv<'_> {
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
        let _s = span(Name::Send);
        self.inner.send(to, msg);
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let _s = span(Name::Timer);
        self.inner.set_timer(delay, tag);
    }

    fn busy(&mut self, duration: SimTime) {
        let _s = span(Name::Busy);
        self.inner.busy(duration);
    }

    fn record(&mut self, series: &str, value: f64) {
        let _s = span(Name::Metric);
        self.inner.record(series, value);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        let _s = span(Name::Metric);
        self.inner.add_counter(name, delta);
    }

    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        let _s = span(Name::Metric);
        self.inner.add_counter_suffixed(prefix, suffix, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        let _s = span(Name::Metric);
        self.inner.observe(name, value);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        let _s = span(Name::Metric);
        self.inner.gauge_set(name, value);
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.gauge(name)
    }

    fn span_enter(&mut self, name: &'static str) {
        let _s = span(Name::Metric);
        self.inner.span_enter(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        let _s = span(Name::Metric);
        self.inner.span_exit(name);
    }
}

/// Times `LocalTrainer::train`.
pub struct TracedTrainer(pub Box<dyn LocalTrainer>);

impl LocalTrainer for TracedTrainer {
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
        let _s = span(Name::Train);
        self.0.train(params, lr, epochs);
    }

    fn num_samples(&self) -> usize {
        self.0.num_samples()
    }
}

/// Wraps `node` for a traced repetition, leaves it alone otherwise.
pub fn node(node: Box<dyn Node<FlMsg>>, role: Role, traced: bool) -> Box<dyn Node<FlMsg>> {
    if traced {
        Box::new(TracedNode::new(node, role))
    } else {
        node
    }
}

/// Wraps `trainer` for a traced repetition, leaves it alone otherwise.
pub fn trainer(trainer: Box<dyn LocalTrainer>, traced: bool) -> Box<dyn LocalTrainer> {
    if traced {
        Box::new(TracedTrainer(trainer))
    } else {
        trainer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            update: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // loop [0,100] > server [10,60] > send [20,30], metric [30,35]
        //              > client [70,90] > train [72,88]
        let spans = vec![
            span_at(NONE, Name::Loop, 0, 100),
            span_at(0, Name::Server, 10, 60),
            span_at(1, Name::Send, 20, 30),
            span_at(1, Name::Metric, 30, 35),
            span_at(0, Name::Client, 70, 90),
            span_at(4, Name::Train, 72, 88),
        ];
        assert_eq!(self_times(&spans), vec![30, 35, 10, 5, 4, 16]);
        // Self times partition the root span exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn by_name_sums_self_time_and_sorts_durations() {
        let spans = vec![
            span_at(NONE, Name::Loop, 0, 10_000),
            span_at(0, Name::Server, 1_000, 4_000),
            span_at(0, Name::Server, 5_000, 6_000),
            span_at(2, Name::Send, 5_200, 5_700),
        ];
        let stats = by_name(&[spans]);
        let server = &stats[Name::Server as usize];
        assert_eq!(server.calls, 2);
        assert!((server.self_s - 3.5e-6).abs() < 1e-15);
        assert_eq!(server.durs_us, vec![1.0, 3.0]);
        assert_eq!(stats[Name::Send as usize].calls, 1);
        assert_eq!(stats[Name::Train as usize].calls, 0);
    }

    #[test]
    fn recorder_nests_spans_and_inherits_update_ids() {
        start(Instant::now());
        {
            let _root = span(Name::Loop);
            {
                let _h = span_for(Name::Server, 42);
                let _e = span(Name::Send);
            }
            let _p = span(Name::Probe);
        }
        let spans = finish();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.update)).collect();
        assert_eq!(
            shape,
            vec![
                (Name::Loop, NONE, 0),
                (Name::Server, 0, 42),
                (Name::Send, 1, 42),
                (Name::Probe, 0, 0),
            ]
        );
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
        }
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[1].end_ns);
        // Recording is off again: spans are no-ops.
        drop(span(Name::Loop));
        assert!(finish().is_empty());
    }

    #[test]
    fn tsv_has_one_line_per_span_and_marks_roots() {
        let threads = vec![vec![
            span_at(NONE, Name::Loop, 5, 50),
            span_at(0, Name::Client, 6, 9),
        ]];
        let mut out = Vec::new();
        write_tsv(&threads, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "thread\tidx\tparent\tupdate\tstart_ns\tend_ns\tname\n\
             0\t0\t-\t0\t5\t50\tloop\n\
             0\t1\t0\t0\t6\t9\tcore.client\n"
        );
    }
}
