//! Messages and nodes shared by the simulator's integration tests.

// Each test crate uses its own subset.
#![allow(dead_code)]

use std::any::Any;

use spyker_simnet::{Env, NetworkConfig, Node, NodeId, Region, SimTime, Simulation, WireSize};

#[derive(Debug, Clone)]
pub struct Msg {
    pub payload: u32,
    pub bytes: usize,
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        self.bytes
    }
    fn kind(&self) -> &'static str {
        "test"
    }
}

/// Records the delivery times of everything it receives.
pub struct Recorder {
    pub received: Vec<(SimTime, NodeId, u32)>,
}

impl Node<Msg> for Recorder {
    fn on_start(&mut self, _env: &mut dyn Env<Msg>) {}
    fn on_message(&mut self, env: &mut dyn Env<Msg>, from: NodeId, msg: Msg) {
        self.received.push((env.now(), from, msg.payload));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends a burst of messages to node 1 at start.
pub struct Burst {
    pub count: u32,
    pub bytes: usize,
}

impl Node<Msg> for Burst {
    fn on_start(&mut self, env: &mut dyn Env<Msg>) {
        for i in 0..self.count {
            env.send(
                1,
                Msg {
                    payload: i,
                    bytes: self.bytes,
                },
            );
        }
    }
    fn on_message(&mut self, _env: &mut dyn Env<Msg>, _from: NodeId, _msg: Msg) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Like [`Burst`] but with an explicit destination.
pub struct BurstTo {
    pub to: NodeId,
    pub count: u32,
    pub bytes: usize,
}

impl Node<Msg> for BurstTo {
    fn on_start(&mut self, env: &mut dyn Env<Msg>) {
        for i in 0..self.count {
            env.send(
                self.to,
                Msg {
                    payload: i,
                    bytes: self.bytes,
                },
            );
        }
    }
    fn on_message(&mut self, _env: &mut dyn Env<Msg>, _from: NodeId, _msg: Msg) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

pub fn two_node_sim(sender: Box<dyn Node<Msg>>) -> Simulation<Msg> {
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 1);
    sim.add_node(sender, Region::Paris);
    sim.add_node(
        Box::new(Recorder {
            received: Vec::new(),
        }),
        Region::Sydney,
    );
    sim
}

pub fn recorder_received(sim: &Simulation<Msg>) -> Vec<(SimTime, NodeId, u32)> {
    sim.node(1)
        .as_any()
        .downcast_ref::<Recorder>()
        .unwrap()
        .received
        .clone()
}

/// What a [`Script`] node runs at start.
type Run<M> = Box<dyn FnOnce(&mut dyn Env<M>) + Send>;

/// Runs its script once, at start.
pub struct Script<M>(Option<Run<M>>);

impl<M: 'static> Script<M> {
    pub fn new(script: impl FnOnce(&mut dyn Env<M>) + Send + 'static) -> Self {
        Self(Some(Box::new(script)))
    }
}

impl<M: 'static> Node<M> for Script<M> {
    fn on_start(&mut self, env: &mut dyn Env<M>) {
        if let Some(script) = self.0.take() {
            script(env);
        }
    }
    fn on_message(&mut self, _env: &mut dyn Env<M>, _from: NodeId, _msg: M) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
