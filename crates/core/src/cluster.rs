//! Multi-center (clustered) Spyker — the paper's stated future work.
//!
//! §7 of the paper: *"Future work includes exploring the possibility of
//! integrating clustering algorithms in Spyker to enable servers to group
//! clients based on possible similarities in their data distributions."*
//!
//! This module implements that extension in the IFCA style (Ghosh et al.,
//! "An Efficient Framework for Clustered Federated Learning"), adapted to
//! Spyker's asynchronous multi-server setting:
//!
//! * each server maintains `K` model centers; a client receives **all**
//!   centers, evaluates them on its private data, trains the
//!   **lowest-loss** one, and reports which center it chose — so clients
//!   with similar data distributions gravitate to the same center and
//!   contradictory populations stop fighting over a single model;
//! * the chosen-center update is integrated with Alg. 1's staleness and
//!   decay weighting, exactly like plain Spyker, but per center;
//! * servers periodically broadcast their centers (fire-and-forget, no
//!   barrier — servers never stop serving clients, preserving Spyker's
//!   defining property); a received center is merged into the *nearest
//!   local* center with the age-sigmoid weight of Alg. 2, which resolves
//!   center correspondence across servers without an alignment round.
//!
//! The cost is bandwidth: every model delivery carries `K` centers. See
//! the `ext_clustering` experiment for the accuracy payoff on populations
//! with conflicting labels.

use std::any::Any;

use spyker_simnet::{Env, Node, NodeId, SimTime};

use crate::config::SpykerConfig;
use crate::ingest::{UpdateIngest, Upload};
use crate::membership::RingView;
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::staleness::{blended_age, server_agg_weight};

/// Local training that can choose among several candidate models
/// (the client half of clustered FL).
pub trait ClusterTrainer: Send {
    /// Scores every candidate on the local data (lower is better), trains
    /// the best one in place for `epochs` at `lr`, and returns its index.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty.
    fn train_best(&mut self, candidates: &mut [ParamVec], lr: f32, epochs: usize) -> usize;

    /// Number of local data points.
    fn num_samples(&self) -> usize;
}

/// A set of `K` model centers with per-center ages.
#[derive(Debug, Clone)]
pub struct KCenters {
    centers: Vec<ParamVec>,
    /// The initial model each center started from, kept so that peer
    /// centers can be matched by their learned *update* (center − init)
    /// rather than by raw parameters: random inits have far larger norms
    /// than early updates, so raw-parameter distances degenerate into
    /// matching centers by which init they happen to share, regardless of
    /// which client population each has actually specialised on.
    inits: Vec<ParamVec>,
    ages: Vec<f64>,
}

impl KCenters {
    /// Creates `k` centers from (ideally distinct) initial models.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty or dimensions differ.
    pub fn new(inits: Vec<ParamVec>) -> Self {
        assert!(!inits.is_empty(), "need at least one center");
        let dim = inits[0].len();
        assert!(
            inits.iter().all(|p| p.len() == dim),
            "center dimensions differ"
        );
        let ages = vec![0.0; inits.len()];
        Self {
            centers: inits.clone(),
            inits,
            ages,
        }
    }

    /// Number of centers.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// The centers.
    pub fn centers(&self) -> &[ParamVec] {
        &self.centers
    }

    /// The per-center ages.
    pub fn ages(&self) -> &[f64] {
        &self.ages
    }

    /// Index of the center nearest to `params` (L2).
    pub fn nearest(&self, params: &ParamVec) -> usize {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (i, c) in self.centers.iter().enumerate() {
            let d = c.l2_distance(params);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Immutable access to center `i`.
    pub fn center(&self, i: usize) -> &ParamVec {
        &self.centers[i]
    }

    /// Integrates `update` into center `i` at rate `t`, growing its age by
    /// `age_delta`.
    pub fn integrate(&mut self, i: usize, update: &ParamVec, t: f32, age_delta: f64) {
        self.centers[i].lerp_toward(update, t);
        self.ages[i] += age_delta;
    }

    /// Merges a peer server's center into the best-matching local center
    /// using Spyker's sigmoid age weighting; returns the local index it
    /// merged into, or `None` if the correspondence was ambiguous and the
    /// merge deferred.
    ///
    /// `peer_init` is the index of the initial model the peer center grew
    /// from (servers share the same init vector, so the index identifies
    /// the init on both sides). Matching compares learned *updates*
    /// (center − init): raw parameters are dominated by the init's random
    /// fingerprint, which would collapse matching into "same init index"
    /// even when two servers' populations have specialised the same init
    /// in opposite ways.
    ///
    /// Matching is geometric, so it is only trustworthy once centers have
    /// differentiated: while every local update is roughly equidistant
    /// from the peer's (early training, or a peer specialisation no local
    /// center shares), merging would blend unrelated populations — the
    /// exact failure mode clustering exists to avoid. The peer must be
    /// *decisively* closest to one center (`d_best < DECISIVE_RATIO *
    /// d_second`) to be merged, with one escape hatch: an ambiguous peer
    /// is still adopted by a *virgin* center — one whose own update is
    /// tiny next to the peer's — because a center that has not
    /// specialised has nothing to contaminate, and a server whose local
    /// clients are stuck flapping between undifferentiated centers can
    /// only be bootstrapped from a peer that has already separated. The
    /// merge applies the peer's update in the matched center's own frame.
    ///
    /// # Panics
    ///
    /// Panics if `peer_init` is not a center index or `peer` has another
    /// dimension than the centers (the server checks both on arrival).
    pub fn merge_peer(
        &mut self,
        peer: &ParamVec,
        peer_init: usize,
        peer_age: f64,
        phi: f32,
        eta_a: f32,
    ) -> Option<usize> {
        /// Required separation between best and second-best match.
        const DECISIVE_RATIO: f32 = 0.8;
        /// A local update this small relative to the peer's marks a
        /// center as virgin (safe to adopt an ambiguous peer).
        const VIRGIN_FRAC: f32 = 0.25;
        let peer_base = &self.inits[peer_init];
        let delta_norm = |c: &ParamVec, init: &ParamVec| -> f32 {
            c.as_slice()
                .iter()
                .zip(init.as_slice())
                .map(|(&c, &i)| (c - i) * (c - i))
                .sum::<f32>()
                .sqrt()
        };
        // d_i = || (center_i − init_i) − (peer − peer_init) ||
        let dists: Vec<f32> = self
            .centers
            .iter()
            .zip(&self.inits)
            .map(|(c, init)| {
                c.as_slice()
                    .iter()
                    .zip(init.as_slice())
                    .zip(peer.as_slice().iter().zip(peer_base.as_slice()))
                    .map(|((&c, &i), (&p, &pi))| {
                        let d = (c - i) - (p - pi);
                        d * d
                    })
                    .sum::<f32>()
                    .sqrt()
            })
            .collect();
        let mut i = (0..dists.len())
            .min_by(|&a, &b| dists[a].total_cmp(&dists[b]))
            .expect("at least one center");
        let second = dists
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &d)| d)
            .reduce(f32::min);
        if let Some(second) = second {
            if dists[i] >= DECISIVE_RATIO * second {
                let peer_norm = delta_norm(peer, peer_base);
                let norms: Vec<f32> = self
                    .centers
                    .iter()
                    .zip(&self.inits)
                    .map(|(c, init)| delta_norm(c, init))
                    .collect();
                let j = (0..norms.len())
                    .min_by(|&a, &b| norms[a].total_cmp(&norms[b]))
                    .expect("at least one center");
                if norms[j] < VIRGIN_FRAC * peer_norm {
                    i = j;
                } else {
                    return None;
                }
            }
        }
        // The peer's learned update re-based onto the matched center's
        // init, so merging never drags the center toward a foreign init.
        let target = ParamVec::from_vec(
            peer.as_slice()
                .iter()
                .zip(peer_base.as_slice())
                .zip(self.inits[i].as_slice())
                .map(|((&p, &pi), &init)| p - pi + init)
                .collect(),
        );
        let w = server_agg_weight(phi, self.ages[i], peer_age);
        self.centers[i].lerp_toward(&target, eta_a * w);
        self.ages[i] = blended_age(eta_a, w, self.ages[i], peer_age);
        Some(i)
    }
}

const SYNC_TIMER: u64 = 7;

/// The clustered client actor: receives all `K` centers, trains the one
/// its data likes best, reports the choice with the update.
pub struct ClusteredFlClient {
    server: NodeId,
    trainer: Box<dyn ClusterTrainer>,
    epochs: usize,
    train_delay: SimTime,
    updates_sent: u64,
    last_choice: Option<usize>,
}

impl ClusteredFlClient {
    /// Creates a clustered client attached to `server`.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0`.
    pub fn new(
        server: NodeId,
        trainer: Box<dyn ClusterTrainer>,
        epochs: usize,
        train_delay: SimTime,
    ) -> Self {
        assert!(epochs > 0, "epochs must be positive");
        Self {
            server,
            trainer,
            epochs,
            train_delay,
            updates_sent: 0,
            last_choice: None,
        }
    }

    /// Updates sent so far.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// The center this client last chose, if any.
    pub fn last_choice(&self) -> Option<usize> {
        self.last_choice
    }
}

impl Node<FlMsg> for ClusteredFlClient {
    fn on_start(&mut self, _env: &mut dyn Env<FlMsg>) {}

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let FlMsg::CentersToClient {
            mut centers,
            ages,
            lr,
        } = msg
        else {
            // Reachable from network bytes on the TCP transport: count
            // and drop rather than assert (DESIGN.md §13).
            env.add_counter("net.unexpected", 1);
            return;
        };
        if from != self.server || centers.is_empty() {
            // An offer from any other node, or an empty one (it would
            // panic `train_best`): a decoded frame can carry either, so
            // count and drop it like any malformed message.
            env.add_counter("net.unexpected", 1);
            return;
        }
        env.span_enter("client.round");
        let choice = self.trainer.train_best(&mut centers, lr, self.epochs);
        self.last_choice = Some(choice);
        env.busy(self.train_delay);
        self.updates_sent += 1;
        env.add_counter("updates.sent", 1);
        let params = centers.swap_remove(choice);
        env.send(
            self.server,
            FlMsg::ClusterUpdate {
                params,
                age: ages[choice],
                center: choice,
                num_samples: self.trainer.num_samples(),
            },
        );
        env.span_exit("client.round");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A Spyker server maintaining `K` model centers (the clustering
/// extension).
pub struct ClusteredSpykerServer {
    /// Epoch-versioned view of the server ring. The clustering extension
    /// runs on a fixed fleet today, but every peer-slot lookup routes
    /// through this view with a *liveness* guard (not just a bounds
    /// guard), so a decoded frame naming a retired or never-spliced slot
    /// is counted and dropped instead of trusted.
    ring: RingView,
    me_idx: usize,
    /// Client book, validation gate and update accounting shared with the
    /// single-model servers; the per-center step stays [`KCenters::integrate`].
    ingest: UpdateIngest,
    /// The center each local client last chose.
    assignment: Vec<usize>,
    centers: KCenters,
    /// Periodic snapshot of `centers` offered to clients for scoring and
    /// training. Offering live centers instead would give every client a
    /// different, fluctuating view — each reply embeds whichever updates
    /// happened to land last, so clients chase noise and no coherent
    /// migration toward a specialising center can form. A snapshot
    /// refreshed every `sync_period` gives all clients in a window the
    /// same view, recovering the coherence of synchronous IFCA rounds
    /// without ever making anyone wait.
    offer_centers: Vec<ParamVec>,
    offer_ages: Vec<f64>,
    cfg: SpykerConfig,
    sync_period: SimTime,
}

impl ClusteredSpykerServer {
    /// Creates the server with `inits.len()` centers.
    ///
    /// # Panics
    ///
    /// Panics if inputs are inconsistent (see [`KCenters::new`]).
    pub fn new(
        me_idx: usize,
        server_nodes: Vec<NodeId>,
        clients: Vec<NodeId>,
        inits: Vec<ParamVec>,
        cfg: SpykerConfig,
        sync_period: SimTime,
    ) -> Self {
        assert!(me_idx < server_nodes.len(), "me_idx out of range");
        assert!(sync_period > SimTime::ZERO, "sync_period must be positive");
        Self {
            assignment: vec![0; clients.len()],
            offer_centers: inits.clone(),
            offer_ages: vec![0.0; inits.len()],
            centers: KCenters::new(inits),
            ring: RingView::fixed(&server_nodes),
            me_idx,
            ingest: UpdateIngest::from_config(clients, &cfg),
            cfg,
            sync_period,
        }
    }

    /// The centers.
    pub fn centers(&self) -> &KCenters {
        &self.centers
    }

    /// The center each local client last chose.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Client updates integrated.
    pub fn processed_updates(&self) -> u64 {
        self.ingest.processed()
    }

    fn centers_msg(&self, lr: f32) -> FlMsg {
        FlMsg::CentersToClient {
            centers: self.offer_centers.clone(),
            ages: self.offer_ages.clone(),
            lr,
        }
    }

    fn refresh_offer(&mut self) {
        self.offer_centers = self.centers.centers().to_vec();
        self.offer_ages = self.centers.ages().to_vec();
    }
}

impl Node<FlMsg> for ClusteredSpykerServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        let msg = self.centers_msg(self.cfg.decay.eta_init);
        for &client in self.ingest.clients() {
            env.send(client, msg.clone());
        }
        // The timer drives the offer refresh even with a single server.
        env.set_timer(self.sync_period, SYNC_TIMER);
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        match msg {
            FlMsg::ClusterUpdate {
                params,
                age,
                center,
                ..
            } => {
                let Some(k) = self.ingest.lookup(from) else {
                    // Reachable from network bytes on the TCP transport:
                    // count and drop rather than assert (DESIGN.md §13).
                    env.add_counter("net.unexpected", 1);
                    return;
                };
                if center >= self.centers.k() {
                    // A decoded frame can carry any index; indexing the
                    // center arrays with it unchecked would panic.
                    env.add_counter("net.unexpected", 1);
                    return;
                }
                env.span_enter("server.aggregate");
                env.busy(self.cfg.agg_cost);
                // A poisoned update must not touch any center. The client
                // still gets the offer back so its training loop keeps
                // running.
                let (current, model_age) =
                    (self.centers.center(center), self.centers.ages()[center]);
                if self
                    .ingest
                    .admit(env, current, model_age, &Upload::Model(&params, None), age)
                {
                    self.assignment[k] = center;
                    let (w, age_step) = self.ingest.weigh(k, model_age, age);
                    self.centers
                        .integrate(center, &params, self.cfg.server_lr * w, age_step);
                    self.ingest.complete(env, k);
                }
                let reply = self.centers_msg(self.ingest.client_lr(k));
                env.send(from, reply);
                env.span_exit("server.aggregate");
            }
            FlMsg::ClusterModel {
                params,
                age,
                center,
                server_idx,
            } => {
                // Liveness guard: the sender slot must be live in the
                // current ring view. A bounds check alone would accept a
                // frame stamped with a retired slot after a membership
                // change (or any slot a hostile frame invents).
                if !self.ring.is_live_slot(server_idx) {
                    env.add_counter("membership.stale_slot", 1);
                    return;
                }
                // Unlike the token exchange, nothing waits on this merge:
                // a peer center that cannot be merged — grown from an init
                // this server does not have, of another dimension, or
                // non-finite — can be dropped outright.
                if center >= self.centers.k() {
                    self.ingest.reject(env, "agg.rejected.peer");
                    return;
                }
                if !self
                    .ingest
                    .admit_peer(env, self.centers.center(center), &params, age)
                {
                    return;
                }
                env.busy(self.cfg.agg_cost);
                let merged =
                    self.centers
                        .merge_peer(&params, center, age, self.cfg.phi, self.cfg.eta_a);
                if merged.is_some() {
                    env.add_counter("server.aggs", 1);
                } else {
                    env.add_counter("cluster.merge_deferred", 1);
                }
            }
            _ => env.add_counter("net.unexpected", 1),
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        debug_assert_eq!(tag, SYNC_TIMER);
        self.refresh_offer();
        let me = self.me_idx;
        if self.ring.len() > 1 {
            for peer in self.ring.peers_of(me) {
                for (c, center) in self.centers.centers().iter().enumerate() {
                    env.send(
                        peer,
                        FlMsg::ClusterModel {
                            params: center.clone(),
                            age: self.centers.ages()[c],
                            center: c,
                            server_idx: me,
                        },
                    );
                }
            }
            env.add_counter("syncs.triggered", 1);
        }
        env.set_timer(self.sync_period, SYNC_TIMER);
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        // State survives the crash but the periodic sync timer died with
        // the inbox; without re-arming it the server would never gossip or
        // refresh its offer again. Clients whose update (or its reply) was
        // discarded are re-poked with the current offer.
        env.add_counter("server.restarts", 1);
        let msg = self.centers_msg(self.cfg.decay.eta_init);
        for &client in self.ingest.clients() {
            env.send(client, msg.clone());
        }
        env.set_timer(self.sync_period, SYNC_TIMER);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// [`ClusterTrainer`] for the analytic mean-target model: candidate loss is
/// the distance to the local target.
pub struct MeanTargetClusterTrainer {
    target: Vec<f32>,
    samples: usize,
}

impl MeanTargetClusterTrainer {
    /// Creates a trainer pulling toward `target`.
    pub fn new(target: Vec<f32>, samples: usize) -> Self {
        Self { target, samples }
    }
}

impl ClusterTrainer for MeanTargetClusterTrainer {
    fn train_best(&mut self, candidates: &mut [ParamVec], lr: f32, epochs: usize) -> usize {
        assert!(!candidates.is_empty(), "no candidates");
        let target = ParamVec::from_vec(self.target.clone());
        let best = (0..candidates.len())
            .min_by(|&a, &b| {
                candidates[a]
                    .l2_distance(&target)
                    .total_cmp(&candidates[b].l2_distance(&target))
            })
            .expect("non-empty");
        let lr = lr.clamp(0.0, 1.0);
        for _ in 0..epochs {
            candidates[best].lerp_toward(&target, lr);
        }
        best
    }

    fn num_samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_simnet::{NetworkConfig, Region, Simulation};

    #[test]
    fn nearest_center_assignment_is_by_distance() {
        let kc = KCenters::new(vec![
            ParamVec::from_vec(vec![0.0, 0.0]),
            ParamVec::from_vec(vec![10.0, 10.0]),
        ]);
        assert_eq!(kc.nearest(&ParamVec::from_vec(vec![1.0, 1.0])), 0);
        assert_eq!(kc.nearest(&ParamVec::from_vec(vec![9.0, 8.0])), 1);
    }

    #[test]
    fn merge_peer_matches_by_learned_update() {
        let mut kc = KCenters::new(vec![
            ParamVec::from_vec(vec![0.0]),
            ParamVec::from_vec(vec![10.0]),
        ]);
        // Local center 1 has learned +2; a peer that grew +1.5 from the
        // same init matches it decisively (center 0 has learned nothing).
        kc.integrate(1, &ParamVec::from_vec(vec![12.0]), 1.0, 1.0);
        let merged_into = kc.merge_peer(&ParamVec::from_vec(vec![11.5]), 1, 50.0, 1.5, 0.6);
        assert_eq!(merged_into, Some(1));
        assert!(kc.center(1).as_slice()[0] < 12.0);
        assert_eq!(kc.center(0).as_slice()[0], 0.0);
    }

    #[test]
    fn merge_peer_follows_updates_across_init_indices() {
        let mut kc = KCenters::new(vec![
            ParamVec::from_vec(vec![0.0]),
            ParamVec::from_vec(vec![10.0]),
        ]);
        // Local center 1 learned +2, center 0 learned −2. A peer that
        // learned +2 *from init 0* corresponds to local center 1 (same
        // population, opposite index assignment on the peer server), and
        // its update must be re-based onto center 1's init: the merge
        // target is 10 + 2, not the raw peer parameters 0 + 2.
        kc.integrate(0, &ParamVec::from_vec(vec![-2.0]), 1.0, 1.0);
        kc.integrate(1, &ParamVec::from_vec(vec![12.0]), 1.0, 1.0);
        let before = kc.center(1).as_slice()[0];
        let merged_into = kc.merge_peer(&ParamVec::from_vec(vec![2.0]), 0, 50.0, 1.5, 0.6);
        assert_eq!(merged_into, Some(1));
        assert!(kc.center(1).as_slice()[0] >= before);
        assert_eq!(kc.center(0).as_slice()[0], -2.0);
    }

    #[test]
    fn ambiguous_peer_is_not_merged_into_specialised_centers() {
        let mut kc = KCenters::new(vec![
            ParamVec::from_vec(vec![0.0, 0.0]),
            ParamVec::from_vec(vec![10.0, 0.0]),
        ]);
        // Both centers have specialised (deltas (+2, 0) and (−2, 0)); a
        // peer whose update (0, +2) matches neither is equidistant from
        // both, so the merge must be deferred with both left untouched.
        kc.integrate(0, &ParamVec::from_vec(vec![2.0, 0.0]), 1.0, 1.0);
        kc.integrate(1, &ParamVec::from_vec(vec![8.0, 0.0]), 1.0, 1.0);
        let peer = ParamVec::from_vec(vec![0.0, 2.0]);
        assert_eq!(kc.merge_peer(&peer, 0, 50.0, 1.5, 0.6), None);
        assert_eq!(kc.center(0).as_slice(), &[2.0, 0.0]);
        assert_eq!(kc.center(1).as_slice(), &[8.0, 0.0]);
    }

    #[test]
    fn ambiguous_peer_bootstraps_a_virgin_center() {
        let mut kc = KCenters::new(vec![
            ParamVec::from_vec(vec![0.0]),
            ParamVec::from_vec(vec![10.0]),
        ]);
        // Neither center has moved from its init, so the peer's update
        // (+5 from init 0) is equidistant from both — but a center that
        // has learned nothing has nothing to contaminate, so the peer is
        // adopted by a virgin center instead of being deferred forever.
        let merged = kc.merge_peer(&ParamVec::from_vec(vec![5.0]), 0, 50.0, 1.5, 0.6);
        assert!(merged.is_some());
        let i = merged.unwrap();
        let moved = kc.center(i).as_slice()[0] - kc.inits[i].as_slice()[0];
        assert!(moved > 0.0, "virgin center did not adopt the peer update");
    }

    /// Two contradictory client populations (targets +1 and −1): a single
    /// model can only average them out, but two centers separate the
    /// populations and serve each its own optimum.
    #[test]
    fn two_centers_resolve_contradictory_populations() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 13);
        let n_clients = 8;
        let cfg = SpykerConfig::paper_defaults(n_clients, 2);
        let inits = vec![
            ParamVec::from_vec(vec![0.05, -0.05]),
            ParamVec::from_vec(vec![-0.05, 0.05]),
        ];
        for s in 0..2usize {
            let clients = (0..n_clients)
                .filter(|i| i % 2 == s)
                .map(|i| 2 + i)
                .collect();
            sim.add_node(
                Box::new(ClusteredSpykerServer::new(
                    s,
                    vec![0, 1],
                    clients,
                    inits.clone(),
                    cfg.clone(),
                    SimTime::from_millis(500),
                )),
                Region::ALL[s],
            );
        }
        for i in 0..n_clients {
            // Population A (i % 4 < 2): target (+1, +1); population B:
            // (−1, −1). Both populations are present at both servers.
            let t = if i % 4 < 2 { 1.0 } else { -1.0 };
            let trainer: Box<dyn ClusterTrainer> =
                Box::new(MeanTargetClusterTrainer::new(vec![t, t], 8));
            sim.add_node(
                Box::new(ClusteredFlClient::new(
                    i % 2,
                    trainer,
                    1,
                    SimTime::from_millis(150),
                )),
                Region::ALL[i % 2],
            );
        }
        sim.run(SimTime::from_secs(30));
        for s in 0..2 {
            let server = sim
                .node(s)
                .as_any()
                .downcast_ref::<ClusteredSpykerServer>()
                .unwrap();
            let centers = server.centers();
            assert!(server.processed_updates() > 20);
            let c0 = centers.center(0).as_slice()[0];
            let c1 = centers.center(1).as_slice()[0];
            let (hi, lo) = if c0 > c1 { (c0, c1) } else { (c1, c0) };
            assert!(
                hi > 0.6 && lo < -0.6,
                "server {s} centers failed to separate: {c0} / {c1}"
            );
        }
    }

    #[test]
    fn clients_report_their_chosen_center() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 5);
        let cfg = SpykerConfig::paper_defaults(2, 1);
        sim.add_node(
            Box::new(ClusteredSpykerServer::new(
                0,
                vec![0],
                vec![1, 2],
                vec![
                    ParamVec::from_vec(vec![0.9]),
                    ParamVec::from_vec(vec![-0.9]),
                ],
                cfg,
                SimTime::from_secs(1),
            )),
            Region::Hongkong,
        );
        for (i, t) in [(1usize, 1.0f32), (2, -1.0)] {
            let trainer: Box<dyn ClusterTrainer> =
                Box::new(MeanTargetClusterTrainer::new(vec![t], 4));
            sim.add_node(
                Box::new(ClusteredFlClient::new(
                    0,
                    trainer,
                    1,
                    SimTime::from_millis(100),
                )),
                Region::Hongkong,
            );
            let _ = i;
        }
        sim.run(SimTime::from_secs(5));
        let server = sim
            .node(0)
            .as_any()
            .downcast_ref::<ClusteredSpykerServer>()
            .unwrap();
        // Client 0 (target +1) on the +0.9 center, client 1 on the -0.9 one.
        assert_eq!(server.assignment(), &[0, 1]);
        let c0 = sim
            .node(1)
            .as_any()
            .downcast_ref::<ClusteredFlClient>()
            .unwrap();
        assert_eq!(c0.last_choice(), Some(0));
        assert!(c0.updates_sent() > 0);
    }

    #[test]
    fn centers_from_a_stranger_are_a_counted_drop() {
        use crate::test_support::MockEnv;
        let trainer = Box::new(MeanTargetClusterTrainer::new(vec![1.0], 8));
        let mut client = ClusteredFlClient::new(0, trainer, 1, SimTime::from_millis(10));
        let mut env = MockEnv::new(2, 3);
        let offer = || FlMsg::CentersToClient {
            centers: vec![ParamVec::zeros(1)],
            ages: vec![0.0],
            lr: 0.5,
        };
        client.on_message(&mut env, 1, offer());
        assert_eq!(env.counter("net.unexpected"), 1);
        assert!(env.sent.is_empty(), "no update may answer a stranger");
        client.on_message(&mut env, 0, offer());
        assert_eq!(env.sent.len(), 1, "its own server's offer is answered");
        assert_eq!(env.sent[0].0, 0);
    }

    #[test]
    fn unmergeable_peer_center_is_a_counted_drop() {
        use crate::test_support::MockEnv;
        let inits = vec![ParamVec::from_vec(vec![0.5, -0.5]); 2];
        let cfg = SpykerConfig::paper_defaults(1, 2);
        let mut s = ClusteredSpykerServer::new(
            0,
            vec![0, 1],
            vec![2],
            inits.clone(),
            cfg,
            SimTime::from_secs(1),
        );
        let mut env = MockEnv::new(0, 3);
        // Another dimension, an init index this server does not have, a
        // poisoned center: any frame can carry each of them.
        for (peer, center) in [
            (vec![1.0, 1.0, 1.0], 0),
            (vec![], 1),
            (vec![1.0, 1.0], 2),
            (vec![1.0, 1.0], usize::MAX),
            (vec![f32::NAN, 1.0], 0),
        ] {
            s.on_message(
                &mut env,
                1,
                FlMsg::ClusterModel {
                    params: ParamVec::from_vec(peer),
                    age: 3.0,
                    center,
                    server_idx: 1,
                },
            );
        }
        assert_eq!(env.counter("agg.rejected.peer"), 5);
        assert_eq!(s.centers().centers(), &inits[..]);
        assert_eq!(env.counter("server.aggs"), 0);
        assert_eq!(env.counter("cluster.merge_deferred"), 0);
    }

    #[test]
    fn single_center_degenerates_to_plain_averaging() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 13);
        let cfg = SpykerConfig::paper_defaults(4, 1);
        sim.add_node(
            Box::new(ClusteredSpykerServer::new(
                0,
                vec![0],
                vec![1, 2, 3, 4],
                vec![ParamVec::zeros(1)],
                cfg,
                SimTime::from_secs(1),
            )),
            Region::Hongkong,
        );
        for i in 0..4 {
            let t = if i % 2 == 0 { 1.0 } else { -1.0 };
            let trainer: Box<dyn ClusterTrainer> =
                Box::new(MeanTargetClusterTrainer::new(vec![t], 8));
            sim.add_node(
                Box::new(ClusteredFlClient::new(
                    0,
                    trainer,
                    1,
                    SimTime::from_millis(150),
                )),
                Region::Hongkong,
            );
        }
        sim.run(SimTime::from_secs(20));
        let server = sim
            .node(0)
            .as_any()
            .downcast_ref::<ClusteredSpykerServer>()
            .unwrap();
        let v = server.centers().center(0).as_slice()[0];
        assert!(v.abs() < 0.9, "single center should average out, got {v}");
    }

    #[test]
    #[should_panic(expected = "need at least one center")]
    fn kcenters_rejects_empty_init() {
        let _ = KCenters::new(Vec::new());
    }
}
