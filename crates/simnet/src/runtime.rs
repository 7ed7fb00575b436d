//! The actor interface shared by the simulator and the TCP transport.
//!
//! Protocol code (Spyker, the baselines) is written once against
//! [`Node`]/[`Env`]; `spyker_simnet::des::Simulation` drives it in virtual
//! time and `spyker-transport` drives the very same actors over sockets.

use std::any::Any;

use crate::pending::JobHandle;
use crate::time::SimTime;

/// Identifier of a node (client or server) inside one deployment.
///
/// Node ids are dense indices assigned in the order nodes are added.
pub type NodeId = usize;

/// Sizing (and labelling) of messages on the wire.
///
/// The simulator charges `wire_size() * 8 / bandwidth` of serialization
/// delay per message and attributes the bytes to [`WireSize::kind`] in the
/// bandwidth-consumption metrics (paper Fig. 12 breaks consumption down by
/// message class).
pub trait WireSize {
    /// Serialized size of this message in bytes.
    fn wire_size(&self) -> usize;

    /// A short label for bandwidth accounting, e.g. `"client-server"`.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Applies a Byzantine sender's `attack` to this message in flight.
    ///
    /// `draw` yields uniform samples in `[0, 1)` from the transport's
    /// seeded fault stream, so corrupted runs stay bit-reproducible.
    /// Returns `true` if the payload was actually altered, letting the
    /// transport count the injection. The default is a no-op: message
    /// types without an attacker-controlled model payload cannot be
    /// poisoned.
    fn corrupt(
        &mut self,
        attack: &crate::fault::ByzantineAttack,
        draw: &mut dyn FnMut() -> f64,
    ) -> bool {
        let _ = (attack, draw);
        false
    }
}

/// The environment handle a [`Node`] uses to interact with the world.
///
/// All effects are expressed through this trait so the same actor code runs
/// under the deterministic simulator and under the TCP transport.
///
/// Within a single handler invocation, [`Env::busy`] models CPU time spent
/// *before* any subsequent effect: a send issued after `busy(d)` leaves the
/// node `d` later than the handler started. This is how the paper's
/// per-procedure computation costs (Tab. 3) and client training delays are
/// charged.
pub trait Env<M> {
    /// Current virtual (or wall-clock) time, including any busy time already
    /// accrued in this handler invocation.
    fn now(&self) -> SimTime;

    /// The id of the node this handler runs on.
    fn me(&self) -> NodeId;

    /// Total number of nodes in the deployment.
    fn num_nodes(&self) -> usize;

    /// Sends `msg` to node `to`. Delivery is asynchronous, reliable and FIFO
    /// per (sender, receiver) pair; latency and serialization delay are
    /// charged by the transport.
    fn send(&mut self, to: NodeId, msg: M);

    /// Schedules [`Node::on_timer`] with `tag` to fire `delay` after the
    /// current effective time.
    fn set_timer(&mut self, delay: SimTime, tag: u64);

    /// Charges `duration` of CPU time to this node. While busy the node does
    /// not process other events; pending deliveries queue up (and are
    /// observable as queue length, paper Fig. 9).
    fn busy(&mut self, duration: SimTime);

    /// Appends `(now, value)` to the named metric time series.
    fn record(&mut self, series: &str, value: f64);

    /// Adds `delta` to the named metric counter.
    fn add_counter(&mut self, name: &str, delta: u64);

    /// Adds `delta` to the counter named `prefix + suffix` (the transports
    /// build the name allocation-free). Defaults to a no-op so bare test
    /// environments need not implement the observability surface.
    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        let _ = (prefix, suffix, delta);
    }

    /// Records `value` into the named histogram. Defaults to a no-op.
    fn observe(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Sets the named gauge to `value` (last write wins). Defaults to a
    /// no-op.
    fn gauge_set(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Reads the named gauge back, if this environment can observe it —
    /// the autoscaler's window into protocol pressure. The DES environment
    /// reads the simulation-wide metrics; distributed transports can only
    /// see gauges set on *this* node (`None` otherwise). Defaults to
    /// `None`, so actors consuming gauges must degrade gracefully (hold,
    /// don't panic) when pressure is unobservable.
    fn gauge(&self, name: &str) -> Option<f64> {
        let _ = name;
        None
    }

    /// Enters the named tracing span on this node at the current effective
    /// time. Defaults to a no-op.
    fn span_enter(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Exits the named tracing span on this node at the current effective
    /// time. Defaults to a no-op.
    fn span_exit(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Sends `to` the message `job` builds, as [`Env::send`] would send
    /// it, and returns a handle on the job if it may still be running.
    ///
    /// `bytes` and `kind` are what the message's [`WireSize`] will say:
    /// a runtime that carries a message before it exists books and times
    /// the send from them. The DES does so: it runs the job on a
    /// `spyker_tensor::pool` worker and settles the message where it hands
    /// the delivery over, panicking if the job panicked or built another
    /// size or kind than declared. A dropped delivery never waits for its
    /// job, which still runs exactly once. The default runs the job here
    /// and sends its message, which fits a transport that serializes each
    /// message inside `send` and any wrapper that wants every computation
    /// on the handler's thread. Where the job runs decides only where work
    /// happens, never what a run computes.
    fn send_computed(
        &mut self,
        to: NodeId,
        bytes: usize,
        kind: &'static str,
        job: Box<dyn FnOnce() -> M + Send>,
    ) -> Option<JobHandle<M>>
    where
        M: Send + 'static,
    {
        let _ = (bytes, kind);
        self.send(to, job());
        None
    }
}

/// A protocol actor: one client or one server.
///
/// Handlers are invoked sequentially per node; a node never runs two
/// handlers concurrently (over TCP each node's handlers run on one thread).
pub trait Node<M>: Send {
    /// Invoked once at time zero, before any message delivery.
    fn on_start(&mut self, env: &mut dyn Env<M>);

    /// Invoked for each delivered message.
    fn on_message(&mut self, env: &mut dyn Env<M>, from: NodeId, msg: M);

    /// Invoked when a timer set via [`Env::set_timer`] fires.
    fn on_timer(&mut self, env: &mut dyn Env<M>, tag: u64) {
        let _ = (env, tag);
    }

    /// Invoked when the node restarts after a fault-injected crash
    /// (`crate::fault::FaultPlan::crash` with a restart time). The node
    /// keeps its last state; timers that fired while it was down are gone,
    /// so implementations should re-arm periodic timers and re-announce
    /// themselves here. The default does nothing (purely reactive nodes
    /// need no recovery of their own).
    fn on_restart(&mut self, env: &mut dyn Env<M>) {
        let _ = env;
    }

    /// Upcast for probes that need to inspect concrete node state (e.g. the
    /// experiment harness reading a server's current model for evaluation).
    fn as_any(&self) -> &dyn Any;

    /// Mutable variant of [`Node::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Blob(Vec<u8>);
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn wire_size_default_kind_is_msg() {
        let b = Blob(vec![0; 16]);
        assert_eq!(b.wire_size(), 16);
        assert_eq!(b.kind(), "msg");
    }
}
