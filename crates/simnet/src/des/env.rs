//! The [`Env`] a handler sees, and the one place a handler is run.

use super::queue::{EventBody, Input};
use super::Core;
use crate::pending::{Job, JobHandle};
use crate::runtime::{Env, NodeId, WireSize};
use crate::time::SimTime;

struct EnvHandle<'a, M> {
    core: &'a mut Core<M>,
    me: NodeId,
    /// The handler's start plus the busy time it has charged so far.
    now: SimTime,
}

impl<M: WireSize> Core<M> {
    /// Runs one handler of node `me` at `at` and books the busy time it
    /// charged: the node is next free at `at + busy`.
    pub(super) fn dispatch(
        &mut self,
        me: NodeId,
        at: SimTime,
        handler: impl FnOnce(&mut dyn Env<M>),
    ) {
        let mut env = EnvHandle {
            core: self,
            me,
            now: at,
        };
        handler(&mut env);
        self.state[me].avail = env.now;
    }
}

impl<M: WireSize> Env<M> for EnvHandle<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn num_nodes(&self) -> usize {
        self.core.state.len()
    }

    fn send(&mut self, to: NodeId, msg: M) {
        assert!(to < self.core.state.len(), "unknown node {to}");
        let at = self.now();
        self.core.schedule_send(at, self.me, to, msg);
    }

    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let at = self.now() + delay;
        self.core
            .push(at, self.me, EventBody::Input(Input::Timer { tag }));
    }

    fn busy(&mut self, duration: SimTime) {
        // The node's compute tier scales every busy charge; the neutral
        // tier takes the exact original path, so runs without compute
        // multipliers are bit-identical to runs without the feature.
        let mul = self.core.state[self.me].compute_mul;
        if mul == 1000 {
            self.now += duration;
        } else {
            self.now +=
                SimTime::from_micros(((duration.as_micros() as u128 * mul as u128) / 1000) as u64);
        }
    }

    fn record(&mut self, series: &str, value: f64) {
        let now = self.now();
        self.core.metrics.record(series, now, value);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        self.core.metrics.add_counter(name, delta);
    }

    fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.core
            .metrics
            .add_counter_suffixed(prefix, suffix, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.core.metrics.observe(name, value);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.core.metrics.gauge_set(name, value);
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.core.metrics.gauge(name)
    }

    fn span_enter(&mut self, name: &'static str) {
        let now = self.now();
        self.core.metrics.span_enter(self.me as u32, name, now);
    }

    fn span_exit(&mut self, name: &'static str) {
        let now = self.now();
        self.core.metrics.span_exit(self.me as u32, name, now);
    }

    fn send_computed(
        &mut self,
        to: NodeId,
        bytes: usize,
        kind: &'static str,
        job: Job<M>,
    ) -> Option<JobHandle<M>>
    where
        M: Send + 'static,
    {
        assert!(to < self.core.state.len(), "unknown node {to}");
        let at = self.now();
        let handle = self
            .core
            .schedule_computed(at, self.me, to, bytes, kind, job);
        Some(handle)
    }
}
