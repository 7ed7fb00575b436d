//! The one `MockEnv`: records a handler's effects so protocol logic can be
//! driven message by message without a simulation. Shared by the in-crate
//! unit tests (`crate::test_support`) and the handler-level battery in
//! `crates/baselines/tests/ingest_battery.rs`.
#![allow(dead_code)] // each including test uses its own subset

use std::collections::HashMap;

use spyker_core::msg::FlMsg;
use spyker_simnet::{Env, NodeId, SimTime};

/// An [`Env`] that delivers nothing: sends, timers, counters, gauges and
/// spans are recorded, busy time and series are ignored, the clock stands
/// at zero. Timers never fire by themselves: a test fires one by handing
/// its tag to the node's `on_timer`.
pub struct MockEnv {
    me: NodeId,
    n: usize,
    /// Every `(to, msg)` sent so far, in order.
    pub sent: Vec<(NodeId, FlMsg)>,
    /// Every `(delay, tag)` timer set so far, in order.
    pub timers: Vec<(SimTime, u64)>,
    /// Every span entered (`true`) or exited (`false`) so far, in order.
    pub spans: Vec<(&'static str, bool)>,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
}

impl MockEnv {
    /// An environment for node `me` of an `n`-node deployment.
    pub fn new(me: NodeId, n: usize) -> Self {
        Self {
            me,
            n,
            sent: Vec::new(),
            timers: Vec::new(),
            spans: Vec::new(),
            counters: HashMap::new(),
            gauges: HashMap::new(),
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Spans entered and not yet exited, innermost last.
    pub fn open_spans(&self) -> Vec<&'static str> {
        let mut open = Vec::new();
        for &(name, entered) in &self.spans {
            if entered {
                open.push(name);
            } else if let Some(at) = open.iter().rposition(|&n| n == name) {
                open.remove(at);
            }
        }
        open
    }
}

impl Env<FlMsg> for MockEnv {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn num_nodes(&self) -> usize {
        self.n
    }
    fn send(&mut self, to: NodeId, msg: FlMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.timers.push((delay, tag));
    }
    fn busy(&mut self, _duration: SimTime) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }
    fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }
    fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }
    fn span_enter(&mut self, name: &'static str) {
        self.spans.push((name, true));
    }
    fn span_exit(&mut self, name: &'static str) {
        self.spans.push((name, false));
    }
}
