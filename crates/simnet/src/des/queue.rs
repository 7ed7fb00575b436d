//! The event queue and the per-node deferral of events that reach a busy
//! node.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use super::absence::Absence;
use super::Core;
use crate::net::Region;
use crate::pending::Pending;
use crate::runtime::{NodeId, WireSize};
use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// What a node is handed: the only events that wait while it is busy.
pub(crate) enum Input<M> {
    Start,
    Deliver {
        from: NodeId,
        msg: M,
    },
    /// A computed send's delivery ([`crate::runtime::Env::send_computed`]):
    /// its message settles when the delivery is handed over.
    DeliverComputed {
        from: NodeId,
        msg: Arc<Pending<M>>,
    },
    Timer {
        tag: u64,
    },
}

pub(crate) enum EventBody<M> {
    Input(Input<M>),
    /// The node becomes absent (a crash or an offline window opens): it
    /// loses the inputs waiting for it and runs no handler until it returns.
    Leave(Absence),
    /// The absence ends; the node keeps its state and gets a
    /// [`crate::runtime::Node::on_restart`] call unless it is still absent
    /// for the other reason.
    Return(Absence),
    /// Bookkeeping only: adds one to the named counter. A
    /// [`crate::fault::ConnWindow`] opens and closes this way; the drop
    /// itself is applied per send via [`crate::fault::FaultPlan::conn_down`].
    Count(&'static str),
    /// Flow-shared links only: the earliest in-flight flow on `trunk` is
    /// due to finish, unless a re-plan has moved the trunk past `gen`.
    /// Never a node event: not counted as processed, not reported to taps.
    FlowTick {
        trunk: usize,
        gen: u64,
    },
}

pub(crate) struct Event<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) body: EventBody<M>,
    /// The node's `epoch` when the event was first deferred behind its busy
    /// node and counted in its queue. A later absence discards it and bumps
    /// the epoch, so if it is still in the global queue it pops silently.
    pub(crate) queued: Option<u32>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the BinaryHeap becomes a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which event-queue implementation drives the run.
///
/// Both produce the exact same `(time, seq)` total order — golden traces,
/// reports and simtest fingerprints are byte-identical across the two.
/// The wheel is the default; the heap is kept as the frozen reference for
/// equivalence tests and as the baseline the scalability bench beats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// `BinaryHeap<Event>` — `O(log n)` push/pop reference implementation.
    Heap,
    /// Hierarchical timer wheel — amortized `O(1)` push/pop (see
    /// [`crate::wheel`]).
    Wheel,
}

pub(super) enum EventQueue<M> {
    Heap(BinaryHeap<Event<M>>),
    Wheel(TimerWheel<M>),
}

impl<M> EventQueue<M> {
    pub(super) fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            SchedulerKind::Wheel => EventQueue::Wheel(TimerWheel::new()),
        }
    }

    #[inline]
    pub(super) fn push(&mut self, ev: Event<M>) {
        match self {
            EventQueue::Heap(h) => h.push(ev),
            EventQueue::Wheel(w) => w.push(ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            EventQueue::Heap(h) => h.pop(),
            EventQueue::Wheel(w) => w.pop(),
        }
    }
}

/// Everything the simulator keeps per node.
pub(super) struct NodeState<M> {
    pub(super) region: Region,
    /// When the node is next free to run a handler.
    pub(super) avail: SimTime,
    /// Events that arrived while the node was busy and have not run yet.
    pub(super) inbox: usize,
    /// Which [`Absence`]s are in force, indexed by absence.
    pub(super) absent: [bool; 2],
    /// How many absences have begun.
    epoch: u32,
    /// Compute multiplier in thousandths (`1000` = neutral); scales every
    /// [`crate::runtime::Env::busy`] charge.
    pub(super) compute_mul: u64,
    /// Side queue of deferred events (target was busy), a min-heap on seq.
    /// Only the minimum-seq deferred event — the node's *representative* —
    /// rides the global queue, so a deep backlog costs O(log depth) per
    /// processed event instead of an O(depth) re-queue storm.
    deferred: BinaryHeap<Reverse<(u64, Event<M>)>>,
    /// `seq` of the in-flight representative, if any.
    rep_seq: Option<u64>,
}

impl<M> NodeState<M> {
    pub(super) fn new(region: Region) -> Self {
        Self {
            region,
            avail: SimTime::ZERO,
            inbox: 0,
            absent: [false; 2],
            epoch: 0,
            compute_mul: 1000,
            deferred: BinaryHeap::new(),
            rep_seq: None,
        }
    }
}

impl<M: WireSize> Core<M> {
    pub(super) fn push(&mut self, time: SimTime, node: NodeId, body: EventBody<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq,
            node,
            body,
            queued: None,
        });
    }

    /// Pops the next event that can take effect now, parking inputs whose
    /// node is still busy. Everything else takes effect immediately: a
    /// crash interrupts whatever the node was busy with.
    pub(super) fn next_ready(&mut self) -> Option<Event<M>> {
        loop {
            let mut ev = self.queue.pop()?;
            if !matches!(ev.body, EventBody::Input(_)) {
                return Some(ev);
            }
            let st = &mut self.state[ev.node];
            if ev.queued.is_some_and(|epoch| epoch != st.epoch) {
                continue; // already discarded by an absence
            }
            if st.avail <= ev.time || st.absent != [false; 2] {
                return Some(ev);
            }
            if ev.queued.is_none() {
                ev.queued = Some(st.epoch);
                st.inbox += 1;
            }
            match st.rep_seq {
                // A lower-seq representative is already in flight: park in
                // the side queue. (The old representative entry of a node
                // whose rep changed is handled here too when it eventually
                // pops.)
                Some(r) if ev.seq > r => st.deferred.push(Reverse((ev.seq, ev))),
                // No representative, this event *is* the representative
                // re-popping (seq == r), or it has a smaller seq and takes
                // over.
                _ => {
                    st.rep_seq = Some(ev.seq);
                    ev.time = st.avail;
                    self.queue.push(ev);
                }
            }
        }
    }

    /// Input `seq` of `node` has run: if it was the node's representative,
    /// the next-lowest-seq parked input (if any) takes its place in the
    /// global queue at the node's availability time.
    pub(super) fn promote_deferred(&mut self, node: NodeId, seq: u64) {
        let st = &mut self.state[node];
        // Seqs are unique, so this identifies exactly the in-flight
        // representative.
        if st.rep_seq == Some(seq) {
            st.rep_seq = None;
            if let Some(Reverse((_, mut nxt))) = st.deferred.pop() {
                st.rep_seq = Some(nxt.seq);
                nxt.time = st.avail;
                self.queue.push(nxt);
            }
        }
    }

    /// `node` became absent: the inputs waiting for it are lost. Returns
    /// how many; those still in the global queue will pop silently.
    pub(super) fn void_queue(&mut self, node: NodeId) -> usize {
        let st = &mut self.state[node];
        st.epoch += 1;
        st.deferred.clear();
        st.rep_seq = None;
        std::mem::take(&mut st.inbox)
    }
}
