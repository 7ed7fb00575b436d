//! The one `MockEnv`: records a handler's effects so protocol logic can be
//! driven message by message without a simulation. Shared by the in-crate
//! unit tests (`crate::test_support`) and the handler-level battery in
//! `crates/baselines/tests/ingest_battery.rs`.
#![allow(dead_code)] // each including test uses its own subset

use std::collections::HashMap;

use spyker_core::msg::FlMsg;
use spyker_simnet::{Env, NodeId, SimTime};

/// An [`Env`] that delivers nothing: sends and counters are recorded,
/// timers, busy time and series are ignored, the clock stands at zero.
pub struct MockEnv {
    me: NodeId,
    n: usize,
    /// Every `(to, msg)` sent so far, in order.
    pub sent: Vec<(NodeId, FlMsg)>,
    counters: HashMap<String, u64>,
}

impl MockEnv {
    /// An environment for node `me` of an `n`-node deployment.
    pub fn new(me: NodeId, n: usize) -> Self {
        Self {
            me,
            n,
            sent: Vec::new(),
            counters: HashMap::new(),
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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
    fn set_timer(&mut self, _delay: SimTime, _tag: u64) {}
    fn busy(&mut self, _duration: SimTime) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }
}
