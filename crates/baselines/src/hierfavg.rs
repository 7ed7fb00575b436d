//! Hierarchical FedAvg (HierFAVG, Liu et al. 2020 / Abad et al. 2020).
//!
//! Edge servers run synchronous FedAvg rounds with their own clients; every
//! `edge_rounds_per_cloud` rounds each edge sends its model to the cloud
//! server, which waits for *all* edges, averages, and sends the global
//! model back. While waiting for the cloud, an edge does not start new
//! client rounds — the synchronous top level is exactly what makes
//! HierFAVG slow across geo-distributed regions (paper §2.3).

use std::any::Any;

use spyker_core::agg::ValidationConfig;
use spyker_core::barrier::RoundBarrier;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_simnet::{Env, Node, NodeId, SimTime};

use crate::fedavg::round_entry;

/// HierFAVG configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierFavgConfig {
    /// Fixed client learning rate.
    pub client_lr: f32,
    /// CPU cost of one aggregation at an edge or the cloud (Tab. 3: 15 ms).
    pub agg_cost: SimTime,
    /// Edge rounds between two cloud aggregations (κ₂).
    pub edge_rounds_per_cloud: u64,
}

impl HierFavgConfig {
    /// The paper's settings with κ₂ = 2.
    pub fn paper_defaults() -> Self {
        Self {
            client_lr: 0.05,
            agg_cost: SimTime::from_millis(15),
            edge_rounds_per_cloud: 2,
        }
    }

    /// Overrides the client learning rate (builder style).
    pub fn with_client_lr(mut self, lr: f32) -> Self {
        self.client_lr = lr;
        self
    }
}

/// An edge server: synchronous FedAvg over its clients, periodic upload to
/// the cloud.
pub struct EdgeServer {
    cloud: NodeId,
    clients: Vec<NodeId>,
    params: ParamVec,
    cfg: HierFavgConfig,
    round: u64,
    rounds_since_cloud: u64,
    cloud_round: u64,
    /// While set, no edge round is open: client updates fill no slot.
    waiting_for_cloud: bool,
    /// This round's uploads and their sample counts, one slot per client.
    barrier: RoundBarrier<(ParamVec, f64)>,
    /// The samples behind the model, the weight of its next cloud upload.
    total_samples: f64,
}

impl EdgeServer {
    /// Creates an edge server reporting to `cloud`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(
        cloud: NodeId,
        clients: Vec<NodeId>,
        init_params: ParamVec,
        cfg: HierFavgConfig,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        Self {
            cloud,
            barrier: RoundBarrier::new(clients.iter().copied()),
            clients,
            params: init_params,
            cfg,
            round: 0,
            rounds_since_cloud: 0,
            cloud_round: 0,
            waiting_for_cloud: false,
            total_samples: 0.0,
        }
    }

    /// The edge's current model.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// Completed edge rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    fn broadcast_round(&self, env: &mut dyn Env<FlMsg>) {
        for &client in &self.clients {
            env.send(
                client,
                FlMsg::ModelToClient {
                    params: self.params.clone(),
                    age: self.round as f64,
                    lr: self.cfg.client_lr,
                },
            );
        }
    }
}

impl Node<FlMsg> for EdgeServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.broadcast_round(env);
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        match msg {
            FlMsg::ClientUpdate {
                params,
                age,
                num_samples,
            } if !self.waiting_for_cloud && self.barrier.is_member(from) => {
                // FedAvg's rule, with the default gate: non-finite values
                // stay out of the mean.
                let upload = (params, age, num_samples as f64);
                let gate = ValidationConfig::default();
                let entry = round_entry(env, &gate, &self.params, self.round, upload);
                self.barrier.offer(from, entry.ok());
                if !self.barrier.is_complete() {
                    return;
                }
                env.span_enter("server.aggregate");
                env.busy(self.cfg.agg_cost);
                let accepted = self.barrier.close();
                // A round with nothing usable keeps the model and its weight.
                if !accepted.is_empty() {
                    self.total_samples = accepted.iter().map(|(_, n)| n).sum();
                    self.params = ParamVec::weighted_mean(&accepted);
                }
                env.add_counter("updates.processed", accepted.len() as u64);
                self.round += 1;
                self.rounds_since_cloud += 1;
                env.add_counter("rounds", 1);
                env.span_exit("server.aggregate");
                if self.rounds_since_cloud >= self.cfg.edge_rounds_per_cloud {
                    // Upload to the cloud and pause client rounds.
                    self.waiting_for_cloud = true;
                    self.rounds_since_cloud = 0;
                    env.send(
                        self.cloud,
                        FlMsg::HierModel {
                            params: self.params.clone(),
                            round: self.cloud_round,
                            weight: self.total_samples,
                        },
                    );
                } else {
                    self.broadcast_round(env);
                }
            }
            // Only the cloud's model, of this edge's dimension and finite,
            // may end the wait: any frame can claim to be one.
            FlMsg::HierModel { params, round, .. }
                if self.waiting_for_cloud
                    && from == self.cloud
                    && params.len() == self.params.len()
                    && params.is_finite() =>
            {
                self.params = params;
                self.cloud_round = round;
                self.waiting_for_cloud = false;
                self.broadcast_round(env);
            }
            // Reachable from network bytes on the TCP transport — a stray
            // frame, an update from a non-client or while no round is open,
            // or a model that is not the awaited cloud's: count and drop
            // rather than assert (DESIGN.md §13).
            _ => env.add_counter("net.unexpected", 1),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The cloud (principal) server: waits for every edge model, averages, and
/// returns the global model.
pub struct CloudServer {
    edges: Vec<NodeId>,
    cfg: HierFavgConfig,
    round: u64,
    /// This round's edge models and their weights, one slot per edge.
    barrier: RoundBarrier<(ParamVec, f64)>,
    params: ParamVec,
}

impl CloudServer {
    /// Creates the cloud server over the given edge servers, holding
    /// `init_params` until its first round closes.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty.
    pub fn new(edges: Vec<NodeId>, init_params: ParamVec, cfg: HierFavgConfig) -> Self {
        assert!(!edges.is_empty(), "need at least one edge server");
        Self {
            barrier: RoundBarrier::new(edges.iter().copied()),
            edges,
            cfg,
            round: 0,
            params: init_params,
        }
    }

    /// The global model: the last cloud round's, or the initial one.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// Completed cloud rounds.
    pub fn round(&self) -> u64 {
        self.round
    }
}

impl Node<FlMsg> for CloudServer {
    fn on_start(&mut self, _env: &mut dyn Env<FlMsg>) {}

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let FlMsg::HierModel { params, weight, .. } = msg else {
            env.add_counter("net.unexpected", 1);
            return;
        };
        if !self.barrier.is_member(from) {
            env.add_counter("net.unexpected", 1);
            return;
        }
        // An edge round's rule, with the edge model's weight: an unusable
        // model fills its edge's slot but stays out of the mean, so the
        // round still closes and every edge is answered.
        let upload = (params, self.round as f64, weight);
        let gate = ValidationConfig::default();
        let entry = round_entry(env, &gate, &self.params, self.round, upload);
        self.barrier.offer(from, entry.ok());
        if !self.barrier.is_complete() {
            return;
        }
        env.span_enter("server.aggregate");
        env.busy(self.cfg.agg_cost);
        let accepted = self.barrier.close();
        // A round with nothing usable keeps the model.
        if !accepted.is_empty() {
            self.params = ParamVec::weighted_mean(&accepted);
        }
        self.round += 1;
        env.add_counter("cloud.rounds", 1);
        env.span_exit("server.aggregate");
        for &edge in &self.edges {
            env.send(
                edge,
                FlMsg::HierModel {
                    params: self.params.clone(),
                    round: self.round,
                    weight: 0.0,
                },
            );
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_core::client::FlClient;
    use spyker_core::training::MeanTargetTrainer;
    use spyker_simnet::{NetworkConfig, Region, Simulation};

    /// Cloud = node 0, edges = 1..=2, clients 3..=6 (two per edge).
    fn build() -> Simulation<FlMsg> {
        let mut sim = Simulation::new(NetworkConfig::aws(), 1);
        let cfg = HierFavgConfig::paper_defaults().with_client_lr(0.5);
        sim.add_node(
            Box::new(CloudServer::new(vec![1, 2], ParamVec::zeros(1), cfg)),
            Region::Hongkong,
        );
        sim.add_node(
            Box::new(EdgeServer::new(0, vec![3, 4], ParamVec::zeros(1), cfg)),
            Region::Paris,
        );
        sim.add_node(
            Box::new(EdgeServer::new(0, vec![5, 6], ParamVec::zeros(1), cfg)),
            Region::Sydney,
        );
        for (i, t) in [0.0f32, 1.0, 2.0, 3.0].into_iter().enumerate() {
            let region = if i < 2 { Region::Paris } else { Region::Sydney };
            sim.add_node(
                Box::new(FlClient::new(
                    1 + i / 2,
                    Box::new(MeanTargetTrainer::new(vec![t], 10)),
                    1,
                    SimTime::from_millis(150),
                )),
                region,
            );
        }
        sim
    }

    #[test]
    fn cloud_rounds_complete_and_model_is_global() {
        let mut sim = build();
        sim.run(SimTime::from_secs(30));
        let cloud = sim.node(0).as_any().downcast_ref::<CloudServer>().unwrap();
        assert!(cloud.round() > 5, "only {} cloud rounds", cloud.round());
        let v = cloud.params().as_slice()[0];
        // Global mean of targets 0..3 is 1.5; synchronous averaging tracks
        // it closely.
        assert!((v - 1.5).abs() < 0.3, "cloud model at {v}");
    }

    #[test]
    fn edges_pause_while_waiting_for_the_cloud() {
        let mut sim = build();
        sim.run(SimTime::from_secs(10));
        let e1 = sim.node(1).as_any().downcast_ref::<EdgeServer>().unwrap();
        let cloud = sim.node(0).as_any().downcast_ref::<CloudServer>().unwrap();
        // Edge rounds per cloud round is exactly κ₂ (2): edges can't run
        // ahead of the cloud by more than one batch of rounds.
        assert!(e1.round() <= (cloud.round() + 1) * 2);
    }

    #[test]
    fn two_level_aggregation_counts_updates_once() {
        let mut sim = build();
        sim.run(SimTime::from_secs(10));
        let rounds = sim.metrics().counter("rounds");
        assert_eq!(sim.metrics().counter("updates.processed"), rounds * 2);
        assert!(sim.metrics().counter("cloud.rounds") > 0);
    }
}
