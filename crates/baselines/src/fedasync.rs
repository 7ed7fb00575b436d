//! Asynchronous FedAsync (Xie et al. 2019).

use std::any::Any;

use spyker_core::agg::{AggregationStrategy, ValidationConfig};
use spyker_core::decay::DecayConfig;
use spyker_core::ingest::{UpdateIngest, Upload};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::staleness::ClientStaleness;
use spyker_simnet::{Env, Node, NodeId, SimTime};

/// FedAsync configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAsyncConfig {
    /// Fixed client learning rate.
    pub client_lr: f32,
    /// Server mixing rate `η` (paper §5.1: 0.6).
    pub eta: f32,
    /// Polynomial staleness exponent `α` (paper §5.1: 0.5).
    pub alpha: f32,
    /// CPU cost of one aggregation (paper Tab. 3: 2 ms).
    pub agg_cost: SimTime,
    /// How accepted updates are combined (default: the algorithm-native
    /// per-update mean). See [`spyker_core::agg`].
    pub aggregation: AggregationStrategy,
    /// Server-side update validation gate (default: reject non-finite
    /// payloads only).
    pub validation: ValidationConfig,
}

impl FedAsyncConfig {
    /// The paper's settings.
    pub fn paper_defaults() -> Self {
        Self {
            client_lr: 0.05,
            eta: 0.6,
            alpha: 0.5,
            agg_cost: SimTime::from_millis(2),
            aggregation: AggregationStrategy::Mean,
            validation: ValidationConfig::default(),
        }
    }

    /// Overrides the client learning rate (builder style).
    pub fn with_client_lr(mut self, lr: f32) -> Self {
        self.client_lr = lr;
        self
    }

    /// Sets the aggregation strategy (builder style).
    pub fn with_aggregation(mut self, aggregation: AggregationStrategy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the update validation gate (builder style).
    pub fn with_validation(mut self, validation: ValidationConfig) -> Self {
        self.validation = validation;
        self
    }
}

/// The single FedAsync server.
///
/// Every client update is integrated immediately on arrival:
/// `W ← W + η · s(τ) · (W_k − W)` with `s(τ) = (1 + τ)^(−α)` where `τ` is
/// the number of server updates since the client's model version was sent
/// out (Eq. 3 with FedAsync's polynomial staleness function). The fresh
/// model goes straight back to the client, so clients never idle — but a
/// single busy server can queue up (paper Fig. 9).
pub struct FedAsyncServer {
    /// The per-update path shared with the Spyker servers (gate, robust
    /// buffer, reply), at a fixed client learning rate.
    ingest: UpdateIngest,
    params: ParamVec,
    cfg: FedAsyncConfig,
    /// The global model version `t` as the age the protocol carries.
    version: f64,
}

impl FedAsyncServer {
    /// Creates the server with its client set and initial model.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(clients: Vec<NodeId>, init_params: ParamVec, cfg: FedAsyncConfig) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        Self {
            ingest: UpdateIngest::new(
                clients,
                DecayConfig::scaled(cfg.client_lr).disabled(),
                ClientStaleness::Polynomial { alpha: cfg.alpha },
                cfg.eta,
                cfg.validation,
                cfg.aggregation,
            ),
            params: init_params,
            cfg,
            version: 0.0,
        }
    }

    /// The current global model.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// Number of updates integrated (the global model version `t`).
    pub fn version(&self) -> u64 {
        self.ingest.processed()
    }

    /// Updates rejected by the validation gate.
    pub fn rejected_updates(&self) -> u64 {
        self.ingest.rejected()
    }
}

impl Node<FlMsg> for FedAsyncServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.ingest.broadcast(env, &self.params, self.version);
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        match msg {
            FlMsg::ClientUpdate { params, age, .. } => {
                let Some(k) = self.ingest.lookup(from) else {
                    env.add_counter("net.unexpected", 1);
                    return;
                };
                env.span_enter("server.aggregate");
                env.busy(self.cfg.agg_cost);
                self.ingest.client_update(
                    env,
                    &mut self.params,
                    &mut self.version,
                    k,
                    Upload::Model(&params, None),
                    age,
                    true,
                );
                env.span_exit("server.aggregate");
            }
            // A returning client (restart, availability window closing)
            // knocks to re-enter the training loop.
            FlMsg::ClientHello => self.ingest.hello(env, from, &self.params, self.version),
            // Reachable from network bytes on the TCP transport: count and
            // drop rather than assert (DESIGN.md §13).
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

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_core::client::FlClient;
    use spyker_core::training::MeanTargetTrainer;
    use spyker_simnet::{NetworkConfig, Region, Simulation};

    fn build(delays_ms: &[u64]) -> Simulation<FlMsg> {
        build_net(delays_ms, NetworkConfig::aws())
    }

    fn build_net(delays_ms: &[u64], net: NetworkConfig) -> Simulation<FlMsg> {
        let mut sim = Simulation::new(net, 1);
        let clients: Vec<NodeId> = (1..=delays_ms.len()).collect();
        let server = FedAsyncServer::new(
            clients,
            ParamVec::zeros(1),
            FedAsyncConfig::paper_defaults().with_client_lr(0.5),
        );
        sim.add_node(Box::new(server), Region::Hongkong);
        for (i, &d) in delays_ms.iter().enumerate() {
            sim.add_node(
                Box::new(FlClient::new(
                    0,
                    Box::new(MeanTargetTrainer::new(vec![i as f32], 10)),
                    1,
                    SimTime::from_millis(d),
                )),
                Region::ALL[i % 4],
            );
        }
        sim
    }

    fn server(sim: &Simulation<FlMsg>) -> &FedAsyncServer {
        sim.node(0)
            .as_any()
            .downcast_ref::<FedAsyncServer>()
            .unwrap()
    }

    #[test]
    fn processes_updates_immediately_no_round_barrier() {
        // A 2 s straggler must not block the fast clients.
        let mut sim = build(&[50, 50, 50, 2000]);
        sim.run(SimTime::from_secs(10));
        let s = server(&sim);
        // Fast clients alone produce far more than 4 rounds worth.
        assert!(s.version() > 100, "only {} updates", s.version());
    }

    #[test]
    fn model_tracks_a_compromise_of_client_targets_on_a_flat_network() {
        let mut sim = build_net(
            &[150, 150, 150, 150],
            NetworkConfig::uniform_all(SimTime::from_millis(20)),
        );
        sim.run(SimTime::from_secs(30));
        let v = server(&sim).params().as_slice()[0];
        // Equal-speed, equal-latency clients with targets 0..3: the model
        // stays near the mean 1.5.
        assert!((v - 1.5).abs() < 0.7, "model at {v}");
    }

    #[test]
    fn geo_distributed_latency_biases_fedasync_toward_near_clients() {
        // With the AWS latency matrix and the server in Hong Kong, the
        // Hong Kong client (target 0) produces updates ~2.7x faster than
        // the far clients, dragging the model below the global mean — the
        // fast-client bias the paper's Fig. 10 documents (and that
        // Spyker's learning-rate decay counters).
        let mut sim = build(&[150, 150, 150, 150]);
        sim.run(SimTime::from_secs(30));
        let v = server(&sim).params().as_slice()[0];
        assert!(v < 1.2, "expected a low-target bias, model at {v}");
    }

    #[test]
    fn nan_injecting_client_is_rejected_not_integrated() {
        // Client 2 NaN-injects every upload; the default gate rejects them
        // all, the honest clients keep the run going.
        let mut sim = build(&[100, 100, 100]).with_faults(
            spyker_simnet::FaultPlan::default()
                .byzantine(2, spyker_simnet::ByzantineAttack::NanInject { prob: 1.0 }),
        );
        sim.run(SimTime::from_secs(10));
        let s = server(&sim);
        assert!(s.params().is_finite(), "NaNs reached the model");
        assert!(s.rejected_updates() > 0);
        let rejected = sim.metrics().counter("agg.rejected");
        assert_eq!(rejected, s.rejected_updates());
        assert_eq!(rejected, sim.metrics().counter("agg.rejected.nonfinite"));
        // The rejected client is still answered with the current model, so
        // it keeps training (and keeps being rejected) instead of starving.
        assert!(rejected > 10, "only {rejected} rejections in 10 s");
        assert!(s.version() > 50, "honest progress stalled");
    }

    #[test]
    fn trimmed_mean_keeps_tracking_targets_under_a_sign_flip_attacker() {
        use spyker_core::agg::AggregationStrategy;
        let net = NetworkConfig::uniform_all(SimTime::from_millis(20));
        let run = |aggregation: AggregationStrategy| {
            let mut sim = Simulation::new(net.clone(), 1).with_faults(
                spyker_simnet::FaultPlan::default()
                    .byzantine(4, spyker_simnet::ByzantineAttack::SignFlip),
            );
            let clients: Vec<NodeId> = (1..=4).collect();
            let srv = FedAsyncServer::new(
                clients,
                ParamVec::zeros(1),
                FedAsyncConfig::paper_defaults()
                    .with_client_lr(0.5)
                    .with_aggregation(aggregation),
            );
            sim.add_node(Box::new(srv), Region::Hongkong);
            for i in 0..4 {
                sim.add_node(
                    Box::new(FlClient::new(
                        0,
                        Box::new(MeanTargetTrainer::new(vec![i as f32], 10)),
                        1,
                        SimTime::from_millis(150),
                    )),
                    Region::ALL[i % 4],
                );
            }
            sim.run(SimTime::from_secs(30));
            let v = server(&sim).params().as_slice()[0];
            let flushes = sim.metrics().counter("agg.robust.flushes");
            (v, flushes)
        };
        // Honest targets are 0, 1, 2 (client 4, target 3, flips its sign).
        let honest_center = 1.0;
        let (mean_v, _) = run(AggregationStrategy::Mean);
        let (robust_v, flushes) = run(AggregationStrategy::TrimmedMean {
            batch: 4,
            trim_ratio: 0.3,
        });
        assert!(flushes > 10, "robust path never flushed");
        assert!(
            (robust_v - honest_center).abs() < (mean_v - honest_center).abs(),
            "trimmed mean ({robust_v}) no better than plain mean ({mean_v})"
        );
        assert!(
            (robust_v - honest_center).abs() < 0.7,
            "trimmed-mean model drifted to {robust_v}"
        );
    }

    #[test]
    fn staler_updates_move_the_model_less() {
        // The server's staleness policy is Eq. 3's polynomial: version 10
        // vs update age 0 weighs (1 + 10)^(-α), a fresh update weighs 1.
        let alpha = FedAsyncConfig::paper_defaults().alpha;
        let policy = ClientStaleness::Polynomial { alpha };
        let (s_stale, s_fresh) = (policy.weight(10.0, 0.0), policy.weight(10.0, 10.0));
        assert!(s_stale < s_fresh);
        assert_eq!(s_fresh, 1.0);
        assert!((s_stale - (11.0f32).powf(-0.5)).abs() < 1e-6);
    }
}
