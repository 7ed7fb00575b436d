//! Flow-level bandwidth ([`crate::net::LinkModel::FlowShared`]): messages share their
//! region-pair trunk and are re-planned whenever a flow joins or finishes.

use std::collections::VecDeque;

use spyker_obs::MetricId;

use super::queue::{EventBody, Input};
use super::Core;
use crate::net::Region;
use crate::pairmap::PairMap;
use crate::runtime::{NodeId, WireSize};
use crate::time::SimTime;

/// One message in transmission on a trunk.
struct ActiveFlow<M> {
    from: NodeId,
    to: NodeId,
    /// While the flow waits behind its pair: its work in bit-microseconds,
    /// `bytes * 8 * 1_000_000`, so a flow with the full trunk to itself
    /// drains `bandwidth_bps` units per microsecond of virtual time. On
    /// joining a trunk the trunk's [`Trunk::drained`] total is added, and
    /// from then on this is the total at which the flow is done: its
    /// remaining work is `finish - drained`, floored at zero. Integer math
    /// keeps re-planning bit-reproducible.
    finish: u128,
    /// Propagation latency (+ jitter) added after transmission completes.
    latency: SimTime,
    msg: M,
}

/// One directed region-pair trunk: its in-flight flows share
/// `bandwidth_bps` equally (processor sharing), re-planned on every join
/// and completion.
///
/// Every flow on the trunk drains the same amount, so the trunk keeps one
/// running total of it instead of a per-flow remainder: a join and a
/// settle are O(1), and only a completing tick walks the flows.
struct Trunk<M> {
    /// In join order.
    flows: Vec<ActiveFlow<M>>,
    /// Virtual time the flow set was last settled to.
    last: SimTime,
    /// Work units each flow on the trunk has received, summed over the
    /// trunk's life.
    drained: u128,
    /// The least [`ActiveFlow::finish`] of `flows`; unused while empty.
    min_finish: u128,
    /// Bumped on every membership change; outstanding [`EventBody::FlowTick`]s
    /// carrying an older generation are stale and ignored.
    gen: u64,
}

impl<M> Trunk<M> {
    /// Drains `(now - last) * bps / n` work units from every in-flight
    /// flow (integer floor — the next tick estimate compensates).
    fn settle(&mut self, now: SimTime, bps: u64) {
        let elapsed = now.as_micros().saturating_sub(self.last.as_micros());
        self.last = now;
        if elapsed == 0 || self.flows.is_empty() {
            return;
        }
        self.drained += elapsed as u128 * bps as u128 / self.flows.len() as u128;
    }

    /// Adds `f`, whose `finish` still holds its work, to a settled trunk.
    fn join(&mut self, mut f: ActiveFlow<M>) {
        f.finish += self.drained;
        self.min_finish = if self.flows.is_empty() {
            f.finish
        } else {
            self.min_finish.min(f.finish)
        };
        self.flows.push(f);
    }

    /// Removes the flows a settled trunk has finished, in join order.
    fn complete(&mut self) -> Vec<ActiveFlow<M>> {
        let drained = self.drained;
        let done = self.flows.extract_if(.., |f| f.finish <= drained).collect();
        self.min_finish = self.flows.iter().map(|f| f.finish).min().unwrap_or(0);
        done
    }

    /// When the earliest in-flight flow finishes, assuming the flow set
    /// stays as-is (any join/leave re-plans with a fresh generation).
    fn next_tick(&self, now: SimTime, bps: u64) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let min_rem = self.min_finish.saturating_sub(self.drained);
        let n = self.flows.len() as u128;
        // ceil-divide, and always at least 1 µs so ticks make progress
        // even when integer floors leave sub-µs residue.
        let dt = ((min_rem * n).div_ceil(bps as u128)).max(1);
        Some(now + SimTime::from_micros(dt as u64))
    }
}

/// All flow-shared state: 16 directed region-pair trunks plus the
/// per-node-pair FIFO queues. Untouched under per-message links.
pub(super) struct FlowNet<M> {
    trunks: Vec<Trunk<M>>,
    /// Per `(from, to)` pair: whether one of its messages is a flow in a
    /// trunk, and the pair's later messages, queued behind it. One active
    /// flow per pair keeps the documented per-link FIFO contract.
    pairs: PairMap<(bool, VecDeque<ActiveFlow<M>>)>,
    /// In-flight flows over all trunks, and the gauge that shows them.
    active: u64,
    gauge_id: Option<MetricId>,
}

impl<M> FlowNet<M> {
    pub(super) fn new(gauge_id: Option<MetricId>) -> Self {
        let trunk = || Trunk {
            flows: Vec::new(),
            last: SimTime::ZERO,
            drained: 0,
            min_finish: 0,
            gen: 0,
        };
        let n_regions = Region::ALL.len();
        Self {
            trunks: (0..n_regions * n_regions).map(|_| trunk()).collect(),
            pairs: PairMap::new(),
            active: 0,
            gauge_id,
        }
    }
}

impl<M: WireSize> Core<M> {
    /// Entry point for a send under flow-shared links: either the pair is
    /// idle and the message becomes a flow on its region trunk right away,
    /// or it queues behind the pair's in-flight flow (preserving the
    /// per-link FIFO contract exactly as the per-message model does).
    pub(super) fn flow_send(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: usize,
        latency: SimTime,
    ) {
        let flow = ActiveFlow {
            from,
            to,
            // Work units: bit-microseconds; at least 1 so zero-byte
            // messages still traverse the trunk machinery deterministically.
            finish: ((bytes as u128) * 8 * 1_000_000).max(1),
            latency,
            msg,
        };
        let (active, queue) = self.flow.pairs.get_or_default(from, to);
        if *active {
            queue.push_back(flow);
        } else {
            *active = true;
            self.flow_start(at, flow);
        }
    }

    /// Joins a flow onto its region trunk: settles the trunk to `now`,
    /// adds the flow, and re-plans.
    fn flow_start(&mut self, now: SimTime, f: ActiveFlow<M>) {
        let trunk_idx =
            self.state[f.from].region.index() * Region::ALL.len() + self.state[f.to].region.index();
        let trunk = &mut self.flow.trunks[trunk_idx];
        trunk.settle(now, self.net.bandwidth_bps);
        trunk.join(f);
        self.flow.active += 1;
        self.replan(now, trunk_idx);
    }

    /// Handles an [`EventBody::FlowTick`]: settles the trunk, completes
    /// every drained flow (delivery = completion + propagation latency,
    /// clamped to per-link FIFO), re-plans, and promotes queued messages on
    /// the freed pairs.
    pub(super) fn flow_tick(&mut self, now: SimTime, trunk_idx: usize, gen: u64) {
        let trunk = &mut self.flow.trunks[trunk_idx];
        if gen != trunk.gen {
            return; // stale tick from before a join/leave re-plan
        }
        trunk.settle(now, self.net.bandwidth_bps);
        // Extraction keeps completion order (and thus seq assignment)
        // deterministic and comprehensible: flows complete in join order.
        let done = trunk.complete();
        self.flow.active -= done.len() as u64;
        self.replan(now, trunk_idx);
        for f in done {
            // Propagation jitter varies per message, so clamp to the
            // link's previous delivery to keep the FIFO contract.
            let free = self.link_free.get_or_default(f.from, f.to);
            let delivery = (now + f.latency).max(*free);
            *free = delivery;
            let (from, to) = (f.from, f.to);
            self.push(
                delivery,
                to,
                EventBody::Input(Input::Deliver { from, msg: f.msg }),
            );
            // The pair is free: start its next queued message, if any.
            let (active, queue) = self.flow.pairs.get_or_default(from, to);
            match queue.pop_front() {
                Some(next) => self.flow_start(now, next),
                None => *active = false,
            }
        }
    }

    /// The trunk's flow set changed: bump its generation (voiding any
    /// outstanding tick), set the `sim.flows.active` gauge, and plan the
    /// tick at which its next flow finishes.
    fn replan(&mut self, now: SimTime, trunk_idx: usize) {
        let trunk = &mut self.flow.trunks[trunk_idx];
        trunk.gen += 1;
        let gen = trunk.gen;
        let next = trunk.next_tick(now, self.net.bandwidth_bps);
        if let Some(id) = self.flow.gauge_id {
            self.metrics.gauge_set_id(id, self.flow.active as f64);
        }
        if let Some(t) = next {
            // FlowTicks target node 0 nominally but are intercepted before
            // dispatch; the node field is never used.
            let body = EventBody::FlowTick {
                trunk: trunk_idx,
                gen,
            };
            self.push(t, 0, body);
        }
    }
}
