//! Synchronous FedAvg (McMahan et al. 2017).

use std::any::Any;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spyker_core::agg::{
    validate_update, AggregationStrategy, RejectReason, RobustBuffer, ValidationConfig,
};
use spyker_core::barrier::RoundBarrier;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_simnet::{Env, Node, NodeId, SimTime};

/// FedAvg configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Fixed client learning rate.
    pub client_lr: f32,
    /// CPU cost of one round aggregation (paper Tab. 3: 15 ms).
    pub agg_cost: SimTime,
    /// Fraction of clients selected each round (`C` in McMahan et al.;
    /// the paper's emulation uses full participation, `1.0`).
    pub participation: f32,
    /// How the round's accepted updates are combined. The default,
    /// [`AggregationStrategy::Mean`], is Eq. 2's data-size weighted mean;
    /// robust variants combine per-round deltas with *uniform* weights,
    /// since `num_samples` is attacker-controllable. A whole round is one
    /// combine, so `batch` only has to be valid (at least 1). See
    /// [`spyker_core::agg`].
    pub aggregation: AggregationStrategy,
    /// Server-side update validation gate (default: reject non-finite
    /// payloads only). A rejected update still counts toward round
    /// completion — the synchronous barrier must not deadlock — but is
    /// excluded from the aggregate.
    pub validation: ValidationConfig,
}

impl FedAvgConfig {
    /// The paper's settings: client lr 0.05, 15 ms aggregation.
    pub fn paper_defaults() -> Self {
        Self {
            client_lr: 0.05,
            agg_cost: SimTime::from_millis(15),
            participation: 1.0,
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

    /// Overrides the per-round participation fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < c <= 1`.
    pub fn with_participation(mut self, c: f32) -> Self {
        assert!(c > 0.0 && c <= 1.0, "participation must be in (0, 1]");
        self.participation = c;
        self
    }
}

/// The single FedAvg server.
///
/// Each round the server sends the global model to every client, waits for
/// *all* updates (full participation, as in the paper's emulation), then
/// replaces the global model with the data-size weighted mean (Eq. 2). The
/// round duration is therefore dictated by the slowest client — the exact
/// bottleneck Fig. 1 of the paper illustrates.
pub struct FedAvgServer {
    clients: Vec<NodeId>,
    params: ParamVec,
    cfg: FedAvgConfig,
    round: u64,
    /// The current round's uploads and their sample counts, one slot per
    /// selected client.
    barrier: RoundBarrier<(ParamVec, f64)>,
    rng: StdRng,
    /// Robust combiner; `None` for Eq. 2's weighted mean.
    robust: Option<RobustBuffer>,
    /// The robust estimate, reused across rounds.
    estimate: ParamVec,
    rejected_updates: u64,
}

impl FedAvgServer {
    /// Creates the server with its client set and initial model.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty, or on an invalid robust strategy.
    pub fn new(clients: Vec<NodeId>, init_params: ParamVec, cfg: FedAvgConfig) -> Self {
        Self::with_seed(clients, init_params, cfg, 0)
    }

    /// [`FedAvgServer::new`] with an explicit selection seed (only matters
    /// when `participation < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty, or on an invalid robust strategy (see
    /// [`RobustBuffer::from_strategy`]).
    pub fn with_seed(
        clients: Vec<NodeId>,
        init_params: ParamVec,
        cfg: FedAvgConfig,
        seed: u64,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        Self {
            clients,
            params: init_params,
            cfg,
            round: 0,
            barrier: RoundBarrier::new([]),
            rng: StdRng::seed_from_u64(seed ^ 0xfeda_f60f_5eed),
            robust: RobustBuffer::from_strategy(cfg.aggregation),
            estimate: ParamVec::zeros(0),
            rejected_updates: 0,
        }
    }

    /// The current global model.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Updates rejected by the validation gate.
    pub fn rejected_updates(&self) -> u64 {
        self.rejected_updates
    }

    /// Selects this round's participants (all clients at `participation =
    /// 1`, otherwise a seeded sample) and sends them the global model.
    fn broadcast_round(&mut self, env: &mut dyn Env<FlMsg>) {
        let k = ((self.clients.len() as f32 * self.cfg.participation).ceil() as usize)
            .clamp(1, self.clients.len());
        let mut selected = self.clients.clone();
        if k < selected.len() {
            selected.shuffle(&mut self.rng);
            selected.truncate(k);
        }
        for &client in &selected {
            env.send(
                client,
                FlMsg::ModelToClient {
                    params: self.params.clone(),
                    age: self.round as f64,
                    lr: self.cfg.client_lr,
                },
            );
        }
        self.barrier = RoundBarrier::new(selected);
    }
}

/// A round member's upload `(params, age, weight)`, checked against the
/// round's `model` at age `round`: `Ok((params, weight))` when a mean can
/// take it. Another dimension, or a weight that is not positive and
/// finite, is `Err(None)`, counted under `net.unexpected`; an upload the
/// gate refuses is `Err(Some(reason))`, booked under `agg.rejected` and its
/// cause as the per-update servers book it. The caller offers either as an
/// unusable entry: it still fills its sender's slot, so the barrier never
/// waits on an attacker.
pub(crate) fn round_entry(
    env: &mut dyn Env<FlMsg>,
    validation: &ValidationConfig,
    model: &ParamVec,
    round: u64,
    (params, age, weight): (ParamVec, f64, f64),
) -> Result<(ParamVec, f64), Option<RejectReason>> {
    if params.len() != model.len() || !(weight > 0.0 && weight.is_finite()) {
        env.add_counter("net.unexpected", 1);
        return Err(None);
    }
    validate_update(validation, model, &params, round as f64, age).map_err(|reason| {
        env.add_counter("agg.rejected", 1);
        env.add_counter(reason.counter(), 1);
        Some(reason)
    })?;
    Ok((params, weight))
}

impl Node<FlMsg> for FedAvgServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.broadcast_round(env);
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let FlMsg::ClientUpdate {
            params,
            age,
            num_samples,
        } = msg
        else {
            // Reachable from network bytes on the TCP transport (and from a
            // restarted client's `ClientHello`): count and drop rather
            // than assert (DESIGN.md §13).
            env.add_counter("net.unexpected", 1);
            return;
        };
        if !self.barrier.is_member(from) {
            env.add_counter("net.unexpected", 1);
            return;
        }
        let upload = (params, age, num_samples as f64);
        let entry = round_entry(env, &self.cfg.validation, &self.params, self.round, upload);
        self.rejected_updates += u64::from(matches!(entry, Err(Some(_))));
        self.barrier.offer(from, entry.ok());
        if !self.barrier.is_complete() {
            return;
        }
        // Round complete: aggregate the accepted updates.
        env.span_enter("server.aggregate");
        env.busy(self.cfg.agg_cost);
        let accepted = self.barrier.close();
        if accepted.is_empty() {
            // Nothing usable arrived: keep the model as is.
        } else if let Some(robust) = &mut self.robust {
            // Robust path: combine per-round deltas with uniform weights
            // (`num_samples` is attacker-controllable) and step the model.
            for (p, _) in &accepted {
                robust.push_difference(p, &self.params, 1.0);
            }
            robust.flush_into(&mut self.estimate);
            self.params.axpy(1.0, &self.estimate);
            env.add_counter("agg.robust.flushes", 1);
        } else {
            // Eq. 2: data-size weighted mean replaces the global model.
            self.params = ParamVec::weighted_mean(&accepted);
        }
        let processed = accepted.len() as u64;
        self.round += 1;
        // One "round" integrates one update from every accepted client.
        env.add_counter("updates.processed", processed);
        env.add_counter("rounds", 1);
        env.span_exit("server.aggregate");
        self.broadcast_round(env);
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
        let mut sim = Simulation::new(NetworkConfig::aws(), 1);
        let clients: Vec<NodeId> = (1..=delays_ms.len()).collect();
        let server = FedAvgServer::new(
            clients.clone(),
            ParamVec::zeros(1),
            FedAvgConfig::paper_defaults().with_client_lr(0.5),
        );
        sim.add_node(Box::new(server), Region::Hongkong);
        for (i, &d) in delays_ms.iter().enumerate() {
            let target = i as f32;
            sim.add_node(
                Box::new(FlClient::new(
                    0,
                    Box::new(MeanTargetTrainer::new(vec![target], 10)),
                    1,
                    SimTime::from_millis(d),
                )),
                Region::ALL[i % 4],
            );
        }
        sim
    }

    fn server(sim: &Simulation<FlMsg>) -> &FedAvgServer {
        sim.node(0).as_any().downcast_ref::<FedAvgServer>().unwrap()
    }

    #[test]
    fn completes_rounds_and_converges_to_weighted_mean() {
        let mut sim = build(&[150, 150, 150, 150]);
        sim.run(SimTime::from_secs(30));
        let s = server(&sim);
        assert!(s.round() > 10, "only {} rounds", s.round());
        // Equal data sizes: converges to the mean target 1.5.
        let v = s.params().as_slice()[0];
        assert!((v - 1.5).abs() < 0.05, "converged to {v}");
    }

    #[test]
    fn round_duration_is_dictated_by_the_slowest_client() {
        // One client takes 2 s; rounds cannot complete faster than that.
        let mut sim = build(&[10, 10, 10, 2000]);
        sim.run(SimTime::from_secs(10));
        let s = server(&sim);
        assert!(
            s.round() <= 5,
            "rounds too fast for a 2 s straggler: {}",
            s.round()
        );
    }

    #[test]
    fn partial_participation_samples_a_subset_each_round() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 1);
        let n = 8;
        let clients: Vec<NodeId> = (1..=n).collect();
        let srv = FedAvgServer::new(
            clients,
            ParamVec::zeros(1),
            FedAvgConfig::paper_defaults()
                .with_client_lr(0.5)
                .with_participation(0.5),
        );
        sim.add_node(Box::new(srv), Region::Hongkong);
        for i in 0..n {
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
        sim.run(SimTime::from_secs(20));
        let rounds = sim.metrics().counter("rounds");
        let updates = sim.metrics().counter("updates.processed");
        assert!(rounds > 5);
        // Half participation: 4 updates per round, not 8.
        assert_eq!(updates, rounds * 4);
        // With targets 0..8 sampled uniformly, the model still tracks a
        // central compromise.
        let v = server(&sim).params().as_slice()[0];
        assert!((v - 3.5).abs() < 1.5, "model at {v}");
    }

    #[test]
    fn rejected_nan_update_does_not_stall_the_round_barrier() {
        // Client 2 (target 1) NaN-injects every upload: its updates are
        // rejected but still complete the round, so FedAvg converges to the
        // mean of the three honest targets {0, 2, 3}.
        let mut sim = build(&[150, 150, 150, 150]).with_faults(
            spyker_simnet::FaultPlan::default()
                .byzantine(2, spyker_simnet::ByzantineAttack::NanInject { prob: 1.0 }),
        );
        sim.run(SimTime::from_secs(30));
        let s = server(&sim);
        assert!(s.round() > 10, "rounds deadlocked at {}", s.round());
        assert!(s.params().is_finite(), "NaNs reached the model");
        assert!(s.rejected_updates() > 0);
        assert_eq!(
            sim.metrics().counter("agg.rejected"),
            sim.metrics().counter("agg.rejected.nonfinite")
        );
        // Three honest updates per round, none from the attacker.
        assert_eq!(
            sim.metrics().counter("updates.processed"),
            sim.metrics().counter("rounds") * 3
        );
        let v = s.params().as_slice()[0];
        let honest_mean = (0.0 + 2.0 + 3.0) / 3.0;
        assert!((v - honest_mean).abs() < 0.1, "converged to {v}");
    }

    #[test]
    fn median_aggregation_survives_a_sign_flip_attacker() {
        use spyker_core::agg::AggregationStrategy;
        let run = |aggregation: AggregationStrategy| {
            let mut sim = Simulation::new(NetworkConfig::aws(), 1).with_faults(
                spyker_simnet::FaultPlan::default()
                    .byzantine(1, spyker_simnet::ByzantineAttack::SignFlip),
            );
            let clients: Vec<NodeId> = (1..=4).collect();
            let srv = FedAvgServer::new(
                clients,
                ParamVec::zeros(1),
                FedAvgConfig::paper_defaults()
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
            (v, sim.metrics().counter("agg.robust.flushes"))
        };
        // Client 1 (target 0) sign-flips; honest targets are 1, 2, 3.
        let honest_center = 2.0;
        let (mean_v, mean_flushes) = run(AggregationStrategy::Mean);
        assert_eq!(mean_flushes, 0);
        // `batch` is ignored by FedAvg: the whole round is one batch.
        let (median_v, flushes) = run(AggregationStrategy::Median { batch: 1 });
        assert!(flushes > 10, "robust path never ran");
        assert!(
            (median_v - honest_center).abs() < (mean_v - honest_center).abs(),
            "median ({median_v}) no better than plain mean ({mean_v})"
        );
        assert!(
            (median_v - honest_center).abs() < 0.7,
            "median model drifted to {median_v}"
        );
    }

    #[test]
    #[should_panic(expected = "participation must be in (0, 1]")]
    fn participation_zero_is_rejected() {
        let _ = FedAvgConfig::paper_defaults().with_participation(0.0);
    }

    fn server_with(aggregation: AggregationStrategy) -> FedAvgServer {
        let cfg = FedAvgConfig::paper_defaults().with_aggregation(aggregation);
        FedAvgServer::new(vec![1], ParamVec::zeros(1), cfg)
    }

    #[test]
    #[should_panic(expected = "robust batch must be at least 1")]
    fn robust_batch_zero_is_rejected() {
        server_with(AggregationStrategy::Median { batch: 0 });
    }

    #[test]
    #[should_panic(expected = "max_norm must be positive and finite")]
    fn nonpositive_max_norm_is_rejected() {
        server_with(AggregationStrategy::ClippedMean {
            batch: 2,
            max_norm: 0.0,
        });
    }

    #[test]
    fn counters_track_rounds_and_updates() {
        let mut sim = build(&[100, 100]);
        sim.run(SimTime::from_secs(5));
        let rounds = sim.metrics().counter("rounds");
        assert!(rounds > 0);
        assert_eq!(sim.metrics().counter("updates.processed"), rounds * 2);
    }
}
