//! Sync-Spyker: the partially synchronous variant (paper §5.1).
//!
//! Servers keep interacting with clients asynchronously, but exchange their
//! models with a *synchronous* protocol: periodically every server
//! broadcasts its model and waits for all peers' models of the same round;
//! the models are then aggregated in a deterministic order (by server
//! index), so after an exchange all servers hold the same model. While an
//! exchange is in flight, incoming client updates are buffered and processed
//! once the exchange completes — exactly the behaviour the paper describes
//! and the reason Sync-Spyker trails Spyker in wall-clock convergence.

use std::any::Any;

use spyker_simnet::{Env, Node, NodeId, SimTime};

use crate::barrier::RoundBarrier;
use crate::config::SpykerConfig;
use crate::ingest::{UpdateIngest, Upload};
use crate::membership::RingView;
use crate::msg::FlMsg;
use crate::params::ParamVec;

const ROUND_TIMER: u64 = 1;

/// One Sync-Spyker server.
pub struct SyncSpykerServer {
    server_idx: usize,
    /// Epoch-versioned view of the server fleet. The synchronous barrier
    /// waits on the *live members* of this view, and peer-model frames
    /// are admitted per-slot through a liveness guard rather than trusted
    /// by raw index.
    ring: RingView,
    /// Alg. 1's per-update path, shared with [`crate::server::SpykerServer`].
    ingest: UpdateIngest,

    params: ParamVec,
    age: f64,

    cfg: SpykerConfig,
    sync_period: SimTime,

    round: u64,
    collecting: bool,
    /// Server models and their ages for this round, one slot per live ring
    /// slot, this server's own included.
    current: RoundBarrier<(ParamVec, f64)>,
    /// The same for the next round: an honest peer can be one round ahead.
    next: RoundBarrier<(ParamVec, f64)>,
    /// Client updates buffered while an exchange is in flight.
    buffered: Vec<(NodeId, ParamVec, Option<bool>, f64)>,
}

impl SyncSpykerServer {
    /// Creates server `server_idx`; every server broadcasts its model each
    /// `sync_period` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `server_idx` is out of range, `server_nodes` is empty, or
    /// `sync_period` is zero.
    pub fn new(
        server_idx: usize,
        server_nodes: Vec<NodeId>,
        clients: Vec<NodeId>,
        init_params: ParamVec,
        cfg: SpykerConfig,
        sync_period: SimTime,
    ) -> Self {
        assert!(!server_nodes.is_empty(), "need at least one server");
        assert!(server_idx < server_nodes.len(), "server_idx out of range");
        assert!(sync_period > SimTime::ZERO, "sync_period must be positive");
        let ring = RingView::fixed(&server_nodes);
        Self {
            server_idx,
            current: RoundBarrier::new(ring.live_slots()),
            next: RoundBarrier::new(ring.live_slots()),
            ring,
            ingest: UpdateIngest::from_config(clients, &cfg),
            params: init_params,
            age: 0.0,
            cfg,
            sync_period,
            round: 0,
            collecting: false,
            buffered: Vec::new(),
        }
    }

    /// This server's current model.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// This server's model age.
    pub fn age(&self) -> f64 {
        self.age
    }

    /// Client updates integrated so far.
    pub fn processed_updates(&self) -> u64 {
        self.ingest.processed()
    }

    /// Completed synchronous exchange rounds.
    pub fn rounds_completed(&self) -> u64 {
        self.round
    }

    /// One dense client update: buffered while an exchange is in flight,
    /// otherwise straight through the shared [`UpdateIngest`] path.
    /// `finite` is the decoder's flag for a decoded upload.
    fn on_client_update(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        from: NodeId,
        update: ParamVec,
        finite: Option<bool>,
        update_age: f64,
    ) {
        if self.collecting {
            self.buffered.push((from, update, finite, update_age));
            return;
        }
        let Some(k) = self.ingest.lookup(from) else {
            // Reachable from network bytes on the TCP transport: count
            // and drop rather than assert (DESIGN.md §13).
            env.add_counter("net.unexpected", 1);
            return;
        };
        env.span_enter("server.aggregate");
        env.busy(self.cfg.agg_cost);
        self.ingest.client_update(
            env,
            &mut self.params,
            &mut self.age,
            k,
            Upload::Model(&update, finite),
            update_age,
            true,
        );
        env.span_exit("server.aggregate");
        // A decoded upload came out of the ingest path's decode buffer;
        // a dense one serves as that buffer just as well.
        self.ingest.recycle_update(update);
    }

    fn start_round(&mut self, env: &mut dyn Env<FlMsg>) {
        self.collecting = true;
        env.span_enter("server.exchange");
        let round = self.round;
        let age = self.age;
        let idx = self.server_idx;
        self.current.offer(idx, Some((self.params.clone(), age)));
        for peer in self.ring.peers_of(idx) {
            env.send(
                peer,
                FlMsg::ServerModel {
                    params: self.params.clone(),
                    age,
                    bid: round,
                    server_idx: idx,
                },
            );
        }
        env.add_counter("syncs.triggered", 1);
        self.try_complete_round(env);
    }

    fn try_complete_round(&mut self, env: &mut dyn Env<FlMsg>) {
        if !self.collecting || !self.current.is_complete() {
            return;
        }
        // Deterministic aggregation: age-weighted mean in server-idx order.
        // Every server computes the same result, so after the round all
        // servers hold the same model. Rejected peer models filled the
        // barrier but stay out of the mean (our own is always in it).
        let models = self.current.close();
        std::mem::swap(&mut self.current, &mut self.next);
        let weighted: Vec<(&ParamVec, f64)> =
            models.iter().map(|(p, age)| (p, age + 1.0)).collect();
        env.busy(self.cfg.agg_cost * (self.ring.len() as u64));
        self.params = ParamVec::weighted_mean(&weighted);
        self.age = models.iter().map(|(_, a)| *a).fold(f64::MIN, f64::max);
        self.collecting = false;
        env.span_exit("server.exchange");
        self.round += 1;
        env.add_counter("server.aggs", models.len() as u64);
        // Drain the updates buffered during the exchange.
        for (from, update, finite, update_age) in std::mem::take(&mut self.buffered) {
            self.on_client_update(env, from, update, finite, update_age);
        }
        env.set_timer(self.sync_period, ROUND_TIMER);
    }
}

impl Node<FlMsg> for SyncSpykerServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        self.ingest.broadcast(env, &self.params, self.age);
        if self.ring.len() > 1 {
            env.set_timer(self.sync_period, ROUND_TIMER);
        }
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        match msg {
            FlMsg::ClientUpdate { params, age, .. } => {
                self.on_client_update(env, from, params, None, age);
            }
            FlMsg::EncodedUpdate { payload, age, .. } => {
                // Decoded at arrival, not after the barrier: the reference
                // history rotates with every reply.
                let decoded =
                    self.ingest
                        .encoded_update(env, from, &payload, &self.params, self.age, false);
                if let Some((update, finite)) = decoded {
                    self.on_client_update(env, from, update, Some(finite), age);
                }
            }
            // A returning client (restart, availability window closing)
            // knocks to re-enter the training loop.
            FlMsg::ClientHello => self.ingest.hello(env, from, &self.params, self.age),
            FlMsg::ServerModel {
                params,
                age,
                bid,
                server_idx,
            } => {
                // Liveness guard: only models from live slots of the
                // current ring view may fill the barrier. A raw-index
                // insert would let a frame with an invented slot complete
                // (and corrupt) the round early.
                let Some(member) = self.ring.member_of_slot(server_idx) else {
                    env.add_counter("membership.stale_slot", 1);
                    return;
                };
                // A live slot is filled only by the server that holds it:
                // any node can name any slot in a frame.
                if member.node != from {
                    env.add_counter("net.unexpected", 1);
                    return;
                }
                // A closed round's model would never be looked at again,
                // and an honest peer is at most one round ahead (it needs
                // ours to close this one): parking more would let a liar
                // keep models for rounds without bound.
                if bid < self.round || bid - self.round > 1 {
                    env.add_counter("net.unexpected", 1);
                    return;
                }
                // Any frame can declare a model of another dimension, a
                // poisoned one or an age below 0 (no model has one, and its
                // weight `age + 1` can sink the mean's total to 0), and
                // `weighted_mean` takes none of them. Only the model is
                // dropped: its slot still fills the barrier, or this server
                // would buffer client updates behind it forever.
                let usable = if age >= 0.0 {
                    self.ingest.admit_peer(env, &self.params, &params, age)
                } else {
                    self.ingest.reject(env, "agg.rejected.peer");
                    false
                };
                let entry = usable.then_some((params, age));
                if bid == self.round {
                    self.current.offer(server_idx, entry);
                    self.try_complete_round(env);
                } else {
                    self.next.offer(server_idx, entry);
                }
            }
            _ => env.add_counter("net.unexpected", 1),
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        debug_assert_eq!(tag, ROUND_TIMER);
        if !self.collecting {
            self.start_round(env);
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
    use crate::client::FlClient;
    use crate::training::MeanTargetTrainer;
    use spyker_simnet::{NetworkConfig, Region, Simulation};

    fn build(period: SimTime) -> Simulation<FlMsg> {
        let mut sim = Simulation::new(NetworkConfig::aws(), 5);
        let cfg = SpykerConfig::paper_defaults(4, 2);
        let s0 = SyncSpykerServer::new(
            0,
            vec![0, 1],
            vec![2, 3],
            ParamVec::zeros(1),
            cfg.clone(),
            period,
        );
        let s1 = SyncSpykerServer::new(1, vec![0, 1], vec![4, 5], ParamVec::zeros(1), cfg, period);
        sim.add_node(Box::new(s0), Region::Paris);
        sim.add_node(Box::new(s1), Region::Sydney);
        for (i, t) in [0.0f32, 1.0, 2.0, 3.0].into_iter().enumerate() {
            let region = if i < 2 { Region::Paris } else { Region::Sydney };
            sim.add_node(
                Box::new(FlClient::new(
                    i / 2,
                    Box::new(MeanTargetTrainer::new(vec![t], 10)),
                    1,
                    SimTime::from_millis(150),
                )),
                region,
            );
        }
        sim
    }

    impl SyncSpykerServer {
        /// The rounds, of this one and the next, some model is parked for.
        fn parked_rounds(&self) -> Vec<u64> {
            [(self.round, &self.current), (self.round + 1, &self.next)]
                .into_iter()
                .filter(|(_, barrier)| !barrier.is_empty())
                .map(|(round, _)| round)
                .collect()
        }
    }

    fn server(sim: &Simulation<FlMsg>, id: usize) -> &SyncSpykerServer {
        sim.node(id)
            .as_any()
            .downcast_ref::<SyncSpykerServer>()
            .unwrap()
    }

    #[test]
    fn rounds_complete_and_servers_stay_centred_on_global_mean() {
        let mut sim = build(SimTime::from_millis(500));
        sim.run(SimTime::from_secs(20));
        // Each round fully averages the server models, after which each
        // server drifts back toward its local client mean (0.5 / 2.5).
        // The invariant is therefore the *midpoint*: it stays at the global
        // mean 1.5, and both servers stay strictly inside (0.5, 2.5).
        let mut vals = Vec::new();
        for id in 0..2 {
            let s = server(&sim, id);
            assert!(
                s.rounds_completed() > 5,
                "server {id} completed too few rounds"
            );
            vals.push(s.params().as_slice()[0]);
        }
        let mid = (vals[0] + vals[1]) / 2.0;
        assert!(
            (mid - 1.5).abs() < 0.3,
            "midpoint drifted: {mid} ({vals:?})"
        );
        assert!(vals.iter().all(|v| *v > 0.5 && *v < 2.5), "{vals:?}");
    }

    #[test]
    fn servers_hold_identical_models_right_after_a_round() {
        // With a period much larger than the exchange time, at most one
        // exchange is in flight; run long enough that both completed the
        // same number of rounds, then compare the last synchronised state
        // indirectly: both must have completed the same rounds.
        let mut sim = build(SimTime::from_secs(2));
        sim.run(SimTime::from_secs(21));
        let r0 = server(&sim, 0).rounds_completed();
        let r1 = server(&sim, 1).rounds_completed();
        assert_eq!(r0, r1, "servers drifted in round count");
        assert!(r0 >= 5);
    }

    #[test]
    fn client_updates_are_buffered_not_lost_during_exchange() {
        let mut sim = build(SimTime::from_millis(200));
        sim.run(SimTime::from_secs(10));
        let processed: u64 = (0..2).map(|id| server(&sim, id).processed_updates()).sum();
        let sent = sim.metrics().counter("updates.sent");
        // Every sent update is eventually processed (minus those in flight
        // at the end of the run).
        assert!(processed > 0);
        assert!(sent - processed < 10, "sent {sent} processed {processed}");
    }

    #[test]
    fn unusable_peer_model_fills_the_barrier_but_stays_out_of_the_mean() {
        use crate::test_support::MockEnv;
        let peer_model = |params: Vec<f32>, bid| FlMsg::ServerModel {
            params: ParamVec::from_vec(params),
            age: 4.0,
            bid,
            server_idx: 1,
        };
        // Another dimension, or poisoned: any frame can carry either.
        for bad in [vec![1.0, 1.0, 1.0], vec![], vec![f32::NAN, 1.0]] {
            let cfg = SpykerConfig::paper_defaults(1, 2);
            let init = ParamVec::from_vec(vec![0.5, -0.5]);
            let mut s = SyncSpykerServer::new(
                0,
                vec![0, 1],
                vec![2],
                init.clone(),
                cfg,
                SimTime::from_secs(1),
            );
            let mut env = MockEnv::new(0, 3);
            s.on_timer(&mut env, ROUND_TIMER);
            assert!(s.collecting);
            s.on_message(&mut env, 1, peer_model(bad, 0));
            assert_eq!(env.counter("agg.rejected.peer"), 1);
            // The round closed on this server's own model alone, so client
            // updates are no longer buffered behind it.
            assert_eq!((s.rounds_completed(), s.collecting), (1, false));
            assert_eq!((s.params(), s.age()), (&init, 0.0));
            assert_eq!(env.counter("server.aggs"), 1);
            // A model for the round that just closed is not parked.
            s.on_message(&mut env, 1, peer_model(vec![1.0, 1.0], 0));
            assert_eq!(env.counter("net.unexpected"), 1);
            assert!(s.parked_rounds().is_empty());
        }
    }

    /// The decoder's finite flag stands in for a second scan of the
    /// decoded model, also for an upload buffered behind an exchange: a
    /// poisoned encoded upload is still rejected, counted as before.
    #[test]
    fn a_poisoned_encoded_upload_is_rejected_as_nonfinite() {
        use crate::test_support::MockEnv;
        use crate::update_codec::{corrupt_payload, CodecConfig, UpdateEncoder};
        use spyker_simnet::ByzantineAttack;
        let codec = CodecConfig::parse("delta").expect("valid spec");
        for during_exchange in [false, true] {
            let cfg = SpykerConfig::paper_defaults(1, 2).with_codec(codec);
            let init = ParamVec::from_vec((0..64).map(|i| i as f32 * 0.01).collect());
            let period = SimTime::from_secs(1);
            let mut s = SyncSpykerServer::new(0, vec![0, 1], vec![2], init.clone(), cfg, period);
            let mut env = MockEnv::new(0, 3);
            s.on_start(&mut env);
            let Some((
                2,
                FlMsg::ModelToClient {
                    params: model, age, ..
                },
            )) = env.sent.last()
            else {
                panic!("expected the start-up model");
            };
            let (model, age) = (model.clone(), *age);
            let trained: Vec<f32> = model.as_slice().iter().map(|v| v + 0.01).collect();
            let mut payload = Vec::new();
            let (reference, ref_hash) = (model.as_slice(), model.content_hash());
            UpdateEncoder::new(codec).encode(2, &trained, reference, ref_hash, &mut payload);
            let nan = ByzantineAttack::NanInject { prob: 1.0 };
            assert!(corrupt_payload(&mut payload, &nan, &mut || 0.0));
            if during_exchange {
                s.on_timer(&mut env, ROUND_TIMER);
            }
            let upload = FlMsg::EncodedUpdate {
                payload,
                age,
                num_samples: 1,
            };
            s.on_message(&mut env, 2, upload);
            if during_exchange {
                assert_eq!(env.counter("agg.rejected"), 0, "buffered, not gated");
                let peer = FlMsg::ServerModel {
                    params: init.clone(),
                    age: 0.0,
                    bid: 0,
                    server_idx: 1,
                };
                s.on_message(&mut env, 1, peer);
                assert_eq!(s.rounds_completed(), 1);
            } else {
                assert_eq!((s.params(), s.age()), (&init, 0.0));
            }
            for (name, want) in [
                ("codec.decoded", 1),
                ("agg.rejected", 1),
                ("agg.rejected.nonfinite", 1),
                ("updates.processed", 0),
            ] {
                assert_eq!(
                    env.counter(name),
                    want,
                    "{name} (during exchange: {during_exchange})"
                );
            }
        }
    }

    #[test]
    fn a_peer_model_more_than_one_round_ahead_is_dropped() {
        use crate::test_support::MockEnv;
        let cfg = SpykerConfig::paper_defaults(1, 2);
        let period = SimTime::from_secs(1);
        let mut s = SyncSpykerServer::new(0, vec![0, 1], vec![2], ParamVec::zeros(1), cfg, period);
        let mut env = MockEnv::new(0, 3);
        let ahead = |bid| FlMsg::ServerModel {
            params: ParamVec::zeros(1),
            age: 1.0,
            bid,
            server_idx: 1,
        };
        for bid in [s.round + 2, u64::MAX] {
            s.on_message(&mut env, 1, ahead(bid));
        }
        assert_eq!(env.counter("net.unexpected"), 2);
        assert!(s.parked_rounds().is_empty());
        // The next round is parked: an honest peer may be there already.
        s.on_message(&mut env, 1, ahead(s.round + 1));
        assert_eq!(s.parked_rounds(), [1]);
    }

    #[test]
    fn single_server_runs_without_exchanges() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 1);
        let cfg = SpykerConfig::paper_defaults(1, 1);
        let s = SyncSpykerServer::new(
            0,
            vec![0],
            vec![1],
            ParamVec::zeros(1),
            cfg,
            SimTime::from_millis(100),
        );
        sim.add_node(Box::new(s), Region::Paris);
        sim.add_node(
            Box::new(FlClient::new(
                0,
                Box::new(MeanTargetTrainer::new(vec![1.0], 4)),
                1,
                SimTime::from_millis(50),
            )),
            Region::Paris,
        );
        sim.run(SimTime::from_secs(2));
        assert_eq!(sim.metrics().counter("syncs.triggered"), 0);
        assert!(server(&sim, 0).processed_updates() > 5);
    }
}
