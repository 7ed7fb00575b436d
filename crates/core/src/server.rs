//! The Spyker server actor (Alg. 1 `Aggregation` + Alg. 2).

use std::any::Any;

use spyker_simnet::{Env, Node, NodeId, Region, SimTime};

use crate::config::SpykerConfig;
use crate::exchange::Exchange;
use crate::ingest::{UpdateIngest, Upload};
use crate::membership::{Membership, Phase, RingView};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::token::Token;

/// Timer tags encode their kind in the top 8 bits so one `on_timer`
/// dispatch can serve several watchdogs; the low 56 bits carry a
/// kind-specific payload (the exchange watchdog stores the `bid` it
/// guards).
const TAG_KIND_SHIFT: u32 = 56;
pub(crate) const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;
pub(crate) const KIND_TOKEN_WATCHDOG: u64 = 1;
pub(crate) const KIND_EXCHANGE_TIMEOUT: u64 = 2;
const KIND_CLIENT_WATCHDOG: u64 = 3;
pub(crate) const KIND_JOIN_RETRY: u64 = 4;
pub(crate) const KIND_LEAVE: u64 = 5;
pub(crate) const KIND_DRAIN: u64 = 6;

pub(crate) fn tag(kind: u64, payload: u64) -> u64 {
    debug_assert!(payload <= TAG_PAYLOAD_MASK, "tag payload overflows");
    (kind << TAG_KIND_SHIFT) | (payload & TAG_PAYLOAD_MASK)
}

/// A server's own state, lent to its parts' handlers: configuration,
/// region, model, age, Alg. 1's ingest path and the watchdog chains.
pub(crate) struct Local {
    pub(crate) cfg: SpykerConfig,
    pub(crate) region: Region,
    pub(crate) params: ParamVec,
    pub(crate) age: f64,
    pub(crate) ingest: UpdateIngest,
    /// Per-client update counts at the last client-watchdog check.
    pub(crate) client_watch: Vec<u64>,
    /// Whether the client and the token watchdog chains run, each at most
    /// once: a crash ends both, a tick off the ring the token one.
    pub(crate) client_watch_armed: bool,
    pub(crate) token_watch_armed: bool,
}

/// One handler call's environment and its server's own state.
pub(crate) struct Cx<'a> {
    pub(crate) env: &'a mut dyn Env<FlMsg>,
    pub(crate) l: &'a mut Local,
}

impl Local {
    fn new(cfg: SpykerConfig, region: Region, clients: Vec<NodeId>, params: ParamVec) -> Self {
        Self {
            client_watch: vec![0; clients.len()],
            ingest: UpdateIngest::from_config(clients, &cfg),
            cfg,
            region,
            params,
            age: 0.0,
            client_watch_armed: false,
            token_watch_armed: false,
        }
    }

    /// Starts the recovery watchdog chains that do not run yet: the token
    /// watchdog's on a ring of peers, the client watchdog's for clients.
    pub(crate) fn arm_watchdogs(&mut self, env: &mut dyn Env<FlMsg>, m: &Membership) {
        if m.ring.len() > 1 && !self.token_watch_armed {
            self.arm_token_watchdog(env, m);
        }
        if !self.ingest.clients().is_empty() {
            self.arm_client_watchdog(env);
        }
    }

    /// Starts the client-watchdog chain (with recovery) unless it runs.
    fn arm_client_watchdog(&mut self, env: &mut dyn Env<FlMsg>) {
        if let Some(rec) = self.cfg.recovery.filter(|_| !self.client_watch_armed) {
            env.set_timer(rec.client_timeout, tag(KIND_CLIENT_WATCHDOG, 0));
            self.client_watch_armed = true;
        }
    }

    /// Arms our token watchdog (with recovery), staggered by ring position
    /// so the first live server regenerates first.
    pub(crate) fn arm_token_watchdog(&mut self, env: &mut dyn Env<FlMsg>, m: &Membership) {
        if let Some(rec) = self.cfg.recovery {
            let position = m.ring.members.iter().position(|x| x.slot == m.slot);
            let delay = rec.token_timeout * (position.unwrap_or(m.slot) as u64 + 1);
            env.set_timer(delay, tag(KIND_TOKEN_WATCHDOG, 0));
            self.token_watch_armed = true;
        }
    }

    /// Sends every client to the member of `ring` nearest to us, forgets
    /// them (`slot`'s load drops to zero) and returns where they went.
    pub(crate) fn shed_clients(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        ring: &RingView,
        slot: usize,
    ) -> Option<NodeId> {
        let target = ring.nearest_to(self.region, env.me()).map(|m| m.node);
        if let Some(server) = target {
            for &client in self.ingest.clients() {
                env.send(client, FlMsg::Rehome { server });
            }
        }
        env.gauge_set(&format!("scale.load.s{slot}"), 0.0);
        self.ingest.clear_clients();
        self.client_watch.clear();
        target
    }

    /// Registers a walk-in client (re-homed from a leaver or failed over
    /// from a crashed server) of the server on `slot` and returns its
    /// local index.
    fn adopt_client(&mut self, env: &mut dyn Env<FlMsg>, id: NodeId, slot: usize) -> usize {
        if let Some(k) = self.ingest.lookup(id) {
            return k;
        }
        let k = self.ingest.adopt(id);
        self.client_watch.push(0);
        env.add_counter("membership.adoptions", 1);
        let load = self.ingest.clients().len() as f64;
        env.gauge_set(&format!("scale.load.s{slot}"), load);
        self.arm_client_watchdog(env);
        k
    }

    /// Client watchdog: any client silent since the last check gets the
    /// current model again. This recovers from a lost `ModelToClient` or
    /// `ClientUpdate` (either direction starves the client forever — the
    /// protocol is purely reactive) and revives clients that crashed and
    /// rejoined.
    fn on_client_watchdog(&mut self, env: &mut dyn Env<FlMsg>) {
        let Some(rec) = self.cfg.recovery else {
            return;
        };
        for k in 0..self.ingest.clients().len() {
            let processed = self.ingest.update_counts().count(k);
            if processed == self.client_watch[k] {
                env.add_counter("client.repoked", 1);
                let client = self.ingest.clients()[k];
                self.ingest.reply(env, client, &self.params, self.age);
            }
            self.client_watch[k] = processed;
        }
        env.set_timer(rec.client_timeout, tag(KIND_CLIENT_WATCHDOG, 0));
    }
}

/// Alg. 1 `Aggregation` for one client update, through the shared
/// [`UpdateIngest`] path; `reply` is `false` only for a
/// [`FlMsg::RedirectedUpdate`].
fn client_update(
    cx: &mut Cx,
    x: &mut Exchange,
    m: &Membership,
    from: NodeId,
    update: Upload<'_>,
    update_age: f64,
    reply: bool,
) {
    let l = &mut *cx.l;
    let k = match l.ingest.lookup(from) {
        Some(k) => k,
        // With elastic membership a re-homed client's first contact may be
        // the update itself (its ClientHello can be lost): adopt on first
        // touch.
        None if l.cfg.membership.is_some() => l.adopt_client(cx.env, from, m.slot),
        None => {
            // Reachable from network bytes on the TCP transport: count and
            // drop rather than assert (DESIGN.md §13). A decoded upload
            // hands its buffer back for the next one to decode into.
            cx.env.add_counter("net.unexpected", 1);
            if let Upload::Delta(delta, _) = update {
                l.ingest.recycle_update(delta);
            }
            return;
        }
    };
    cx.env.span_enter("server.aggregate");
    cx.env.busy(l.cfg.agg_cost);
    let (params, age) = (&mut l.params, &mut l.age);
    if l.ingest
        .client_update(cx.env, params, age, k, update, update_age, reply)
    {
        x.track_own_age(m, l.age);
        // l. 20 (the client never waits on server-server synchronisation:
        // its reply is already on the wire).
        x.check(cx, m);
    }
    cx.env.span_exit("server.aggregate");
}

/// One Spyker server.
///
/// A server owns a model and an age, integrates client updates as they
/// arrive (never blocking on peers), and participates in the token-triggered
/// asynchronous exchange of server models. It dispatches to three parts:
/// Alg. 1's [`UpdateIngest`], Alg. 2's [`Exchange`] and the elastic
/// [`Membership`] phase machine. See the pseudocode mapping in `DESIGN.md`
/// §2.
pub struct SpykerServer {
    local: Local,
    exchange: Exchange,
    membership: Membership,
}

impl SpykerServer {
    /// Creates server `server_idx` of the deployment.
    ///
    /// * `server_nodes[i]` is the node id of server `i`; the token ring
    ///   follows this order.
    /// * `clients` are the node ids of the clients assigned to this server.
    /// * Server 0 initially holds the token (`ServerInit`, Alg. 2 l. 2).
    ///
    /// # Panics
    ///
    /// Panics if `server_idx` is out of range or `server_nodes` is empty.
    pub fn new(
        server_idx: usize,
        server_nodes: Vec<NodeId>,
        clients: Vec<NodeId>,
        init_params: ParamVec,
        cfg: SpykerConfig,
    ) -> Self {
        assert!(!server_nodes.is_empty(), "need at least one server");
        assert!(server_idx < server_nodes.len(), "server_idx out of range");
        let ring = RingView::fixed(&server_nodes);
        let region = ring.members[server_idx].region;
        let token = (server_idx == 0).then(|| Token::initial(ring.slots));
        Self {
            local: Local::new(cfg, region, clients, init_params),
            exchange: Exchange::new(ring.slots, token),
            membership: Membership::member(server_idx, ring),
        }
    }

    /// Creates a *standby* server: built and reachable on the transport but
    /// not on the ring. It bootstraps model, ages and ring view from a live
    /// sponsor when its join triggers — after `join_after`, or on a
    /// [`FlMsg::ScaleUp`] from the autoscaler when `join_after` is `None`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.membership` is enabled (a fixed ring has no way
    /// to ever admit this server).
    pub fn standby(
        region: Region,
        init_params: ParamVec,
        cfg: SpykerConfig,
        sponsor: Option<NodeId>,
        join_after: Option<SimTime>,
    ) -> Self {
        assert!(
            cfg.membership.is_some(),
            "standby servers need membership enabled"
        );
        Self {
            local: Local::new(cfg, region, Vec::new(), init_params),
            exchange: Exchange::default(),
            membership: Membership::standby(sponsor, join_after),
        }
    }

    /// Schedules a voluntary leave at `at` (builder style): the server
    /// hands off the token, re-homes its clients to the nearest survivor,
    /// drains in-flight updates, and departs.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.membership` is enabled.
    pub fn with_leave_at(mut self, at: SimTime) -> Self {
        assert!(
            self.local.cfg.membership.is_some(),
            "voluntary leave needs membership enabled"
        );
        self.membership.schedule_leave(at);
        self
    }

    /// This server's current model.
    pub fn params(&self) -> &ParamVec {
        &self.local.params
    }

    /// This server's current model age `A_i`.
    pub fn age(&self) -> f64 {
        self.local.age
    }

    /// Number of client updates this server has integrated.
    pub fn processed_updates(&self) -> u64 {
        self.local.ingest.processed()
    }

    /// Number of synchronisations this server has triggered as token holder.
    pub fn syncs_triggered(&self) -> u64 {
        self.exchange.syncs_triggered
    }

    /// Number of peer models this server has aggregated.
    pub fn server_aggs(&self) -> u64 {
        self.exchange.server_aggs
    }

    /// Number of lost tokens this server has regenerated (recovery only).
    pub fn tokens_regenerated(&self) -> u64 {
        self.exchange.tokens_regenerated
    }

    /// Number of exchanges this server forwarded the token for before every
    /// peer had answered (recovery only).
    pub fn degraded_syncs(&self) -> u64 {
        self.exchange.degraded_syncs
    }

    /// Number of updates (client deltas and peer models) the validation
    /// gate rejected. See [`crate::agg::ValidationConfig`].
    pub fn rejected_updates(&self) -> u64 {
        self.local.ingest.rejected()
    }

    /// `true` while this server holds the ring token.
    pub fn has_token(&self) -> bool {
        self.exchange.token.is_some()
    }

    /// This server's ring slot (its stable index into every age vector).
    /// `usize::MAX` while standby — a slot is only assigned on join.
    pub fn server_idx(&self) -> usize {
        self.membership.slot
    }

    /// Epoch of this server's current ring view. Monotone non-decreasing —
    /// the epoch-monotonicity invariant checked by `spyker-simtest`.
    pub fn ring_epoch(&self) -> u64 {
        self.membership.ring.epoch
    }

    /// Membership lifecycle phase, for oracles and reports.
    pub fn membership_phase(&self) -> &'static str {
        match self.membership.phase {
            Phase::Standby => "standby",
            Phase::Live => "live",
            Phase::Draining => "draining",
            Phase::Departed => "departed",
        }
    }

    /// `true` while this server is a live ring member (always, on a fixed
    /// ring).
    pub fn is_ring_member(&self) -> bool {
        self.membership.phase == Phase::Live
    }

    /// The bid of the token this server currently holds, if any.
    ///
    /// Read-only protocol state for invariant oracles (`spyker-simtest`):
    /// together with [`SpykerServer::has_token`] this is the global token
    /// table — at most one live token should exist per regeneration epoch.
    pub fn token_bid(&self) -> Option<u64> {
        self.exchange.token.as_ref().map(|t| t.bid)
    }

    /// This server's knowledge of every server's age (`ages[j]` is the
    /// freshest age it has seen for server `j`; its own entry tracks its
    /// live age). Peer entries are only ever merged upward, so each is
    /// monotone non-decreasing over a run — the age-monotonicity invariant.
    pub fn known_ages(&self) -> &[f64] {
        &self.exchange.ages
    }

    /// Highest synchronisation bid this server has observed (own tokens,
    /// received tokens, peer broadcasts). Monotone non-decreasing.
    pub fn highest_bid_seen(&self) -> u64 {
        self.exchange.highest_bid_seen
    }

    /// `true` while this server is inside a token-triggered exchange it
    /// initiated (holding the token until every peer model arrives).
    pub fn is_synchronising(&self) -> bool {
        self.exchange.ongoing
    }

    /// Exchange ledger: how many models this server has counted toward the
    /// bid it holds (Alg. 2's `cnt`); zero for any other bid.
    pub fn models_counted(&self, bid: u64) -> usize {
        self.exchange.models_counted(bid)
    }

    /// Exchange ledger: `true` if this server has already broadcast its
    /// model for synchronisation `bid` (it answers each bid at most once),
    /// or `bid` is too far below the highest bid seen to be answered.
    pub fn has_broadcast(&self, bid: u64) -> bool {
        self.exchange.has_broadcast(bid)
    }

    /// Test-only fault hook: hands this server a forged token, regardless
    /// of protocol state.
    ///
    /// This deliberately *breaks* the token-uniqueness invariant when
    /// another server still holds the real token — it exists so the
    /// simulation-test harness can prove its oracles catch a duplicated
    /// token (see `spyker-simtest`). Never call it from protocol code.
    #[doc(hidden)]
    pub fn debug_force_token(&mut self, bid: u64) {
        self.exchange.hold(bid);
    }
}

impl Node<FlMsg> for SpykerServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        let (l, m) = (&mut self.local, &self.membership);
        if m.phase == Phase::Standby {
            if let Some(at) = m.join_after {
                env.set_timer(at, tag(KIND_JOIN_RETRY, 0));
            }
            return;
        }
        // Kick every client off with the initial model.
        l.ingest.broadcast(env, &l.params, l.age);
        l.arm_watchdogs(env, m);
        if l.cfg.membership.is_some() {
            m.gauge_ring(env);
            let load = l.ingest.clients().len() as f64;
            env.gauge_set(&format!("scale.load.s{}", m.slot), load);
            if let Some(at) = m.leave_at {
                env.set_timer(at, tag(KIND_LEAVE, 0));
            }
        }
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        let (x, m) = (&mut self.exchange, &mut self.membership);
        let cx = &mut Cx {
            env,
            l: &mut self.local,
        };
        // Phase routing (inert without membership: fixed-ring servers are
        // permanently `Live` and fall straight through).
        let Some(msg) = m.route(cx, x, from, msg) else {
            return;
        };
        let elastic = cx.l.cfg.membership.is_some();
        match msg {
            FlMsg::ClientUpdate { params, age, .. } => {
                client_update(cx, x, m, from, Upload::Model(&params, None), age, true);
            }
            // Decoded against the model it is about to enter, which
            // nothing changes before it does.
            FlMsg::EncodedUpdate { payload, age, .. } => {
                let l = &mut *cx.l;
                let decoded = l
                    .ingest
                    .encoded_update(cx.env, from, &payload, &l.params, l.age, true);
                if let Some((delta, finite)) = decoded {
                    client_update(cx, x, m, from, Upload::Delta(delta, finite), age, true);
                }
            }
            FlMsg::AgeGossip { age, server_idx } => x.on_age_gossip(cx, m, server_idx, age),
            FlMsg::TokenPass(token) => x.on_token(cx, m, token),
            FlMsg::ServerModel {
                params,
                age,
                bid,
                server_idx,
            } => x.on_server_model(cx, m, server_idx, params, age, bid),
            // A re-homed client's first contact: adopt it and hand it the
            // model.
            FlMsg::ClientHello if elastic => {
                let l = &mut *cx.l;
                l.adopt_client(cx.env, from, m.slot);
                l.ingest.reply(cx.env, from, &l.params, l.age);
            }
            // Without the membership extension the client set is static:
            // a returning client (restart, availability window closing)
            // knocks to re-enter the training loop and is welcomed back,
            // an unknown sender is a counted drop.
            FlMsg::ClientHello => cx.l.ingest.hello(cx.env, from, &cx.l.params, cx.l.age),
            FlMsg::RedirectedUpdate {
                client,
                params,
                age,
                ..
            } if elastic => {
                cx.l.adopt_client(cx.env, client, m.slot);
                client_update(cx, x, m, client, Upload::Model(&params, None), age, false);
            }
            _ => cx.env.add_counter("net.unexpected", 1),
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        let (x, m) = (&mut self.exchange, &mut self.membership);
        let cx = &mut Cx {
            env,
            l: &mut self.local,
        };
        match tag >> TAG_KIND_SHIFT {
            KIND_TOKEN_WATCHDOG => x.on_token_watchdog(cx, m),
            KIND_EXCHANGE_TIMEOUT => x.on_exchange_timeout(cx, m, tag & TAG_PAYLOAD_MASK),
            KIND_CLIENT_WATCHDOG => cx.l.on_client_watchdog(cx.env),
            KIND_JOIN_RETRY => m.on_join_retry(cx),
            KIND_LEAVE => m.begin_leave(cx, x),
            KIND_DRAIN => m.on_drain(cx),
            _ => debug_assert!(false, "unexpected timer tag {tag:#x}"),
        }
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        let (x, m, l) = (&mut self.exchange, &self.membership, &mut self.local);
        // The node keeps its model and ages but every armed timer fired
        // into the void while it was down: re-arm what the phase needs.
        // That ended both watchdog chains too; off the ring, a rejoin and
        // the next client adoption restart them.
        l.client_watch_armed = false;
        l.token_watch_armed = false;
        match (m.phase, l.cfg.membership) {
            (Phase::Live, _) => {}
            (Phase::Standby, Some(mcfg)) => {
                env.set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
                return;
            }
            (Phase::Draining, Some(mcfg)) => {
                env.set_timer(mcfg.drain_timeout, tag(KIND_DRAIN, 0));
                return;
            }
            _ => return,
        }
        // Re-arm the watchdogs and poke the clients (whatever was in
        // flight to or from them is lost). A pre-crash exchange can no
        // longer complete the normal way — the peers' models were
        // discarded with the inbox — so close it and let the token
        // watchdogs recover the ring. If we still hold the token, re-stamp
        // it: peers already broadcast under its old bid and would ignore a
        // re-triggered exchange.
        x.close(env, false);
        x.restamp(env, x.fresh_bid(m), m.ring.slots);
        env.add_counter("server.restarts", 1);
        l.ingest.broadcast(env, &l.params, l.age);
        l.arm_watchdogs(env, m);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg::AggregationStrategy;
    use crate::client::FlClient;
    use crate::config::RecoveryConfig;
    use crate::test_support::MockEnv;
    use crate::training::MeanTargetTrainer;
    use spyker_simnet::{ByzantineAttack, FaultPlan, NetworkConfig, Region, SimTime, Simulation};

    /// Two servers, two clients each; client targets average to 1.5.
    pub(crate) fn build_two_server_sim(cfg: SpykerConfig) -> Simulation<FlMsg> {
        build_two_server_sim_delay(cfg, SimTime::from_millis(150))
    }

    fn build_two_server_sim_delay(cfg: SpykerConfig, delay: SimTime) -> Simulation<FlMsg> {
        let mut sim = Simulation::new(NetworkConfig::aws(), 3);
        let server_nodes = vec![0, 1];
        let targets = [0.0f32, 1.0, 2.0, 3.0];
        let s0 = SpykerServer::new(
            0,
            server_nodes.clone(),
            vec![2, 3],
            ParamVec::zeros(2),
            cfg.clone(),
        );
        let s1 = SpykerServer::new(1, server_nodes, vec![4, 5], ParamVec::zeros(2), cfg);
        sim.add_node(Box::new(s0), Region::Paris);
        sim.add_node(Box::new(s1), Region::Sydney);
        for (i, &t) in targets.iter().enumerate() {
            let region = if i < 2 { Region::Paris } else { Region::Sydney };
            let trainer = MeanTargetTrainer::new(vec![t, t], 10);
            sim.add_node(
                Box::new(FlClient::new(
                    i / 2, // clients 2,3 -> server 0; clients 4,5 -> server 1
                    Box::new(trainer),
                    1,
                    delay,
                )),
                region,
            );
        }
        sim
    }

    /// The same deployment as [`build_two_server_sim`], under `plan`.
    pub(crate) fn build_faulty_sim(cfg: SpykerConfig, plan: FaultPlan) -> Simulation<FlMsg> {
        build_two_server_sim(cfg).with_faults(plan)
    }

    pub(crate) fn server(sim: &Simulation<FlMsg>, id: usize) -> &SpykerServer {
        sim.node(id)
            .as_any()
            .downcast_ref::<SpykerServer>()
            .unwrap_or_else(|| panic!("node {id} is not a SpykerServer"))
    }

    pub(crate) fn tight_cfg() -> SpykerConfig {
        // Small thresholds so synchronisation happens often in short tests.
        SpykerConfig::paper_defaults(4, 2).with_thresholds(3.0, 20.0)
    }

    pub(crate) fn recovery_cfg() -> SpykerConfig {
        tight_cfg().with_recovery(RecoveryConfig {
            token_timeout: SimTime::from_secs(2),
            exchange_timeout: SimTime::from_secs(1),
            client_timeout: SimTime::from_secs(1),
        })
    }

    /// Server `idx` of a fixed ring on nodes `0..n`, serving client node
    /// `n + idx`, with a two-coordinate zero model.
    pub(crate) fn member(idx: usize, n: usize, cfg: SpykerConfig) -> SpykerServer {
        let clients = vec![n + idx];
        SpykerServer::new(idx, (0..n).collect(), clients, ParamVec::zeros(2), cfg)
    }

    /// Number of clients homed on `s`.
    pub(crate) fn num_clients(s: &SpykerServer) -> usize {
        s.local.ingest.clients().len()
    }

    /// `s`'s side of Alg. 2.
    pub(crate) fn exchange_of(s: &SpykerServer) -> &Exchange {
        &s.exchange
    }

    /// Runs `f` on `s`'s parts as one handler call in `env`.
    pub(crate) fn drive<R>(
        s: &mut SpykerServer,
        env: &mut MockEnv,
        f: impl FnOnce(&mut Exchange, &mut Membership, &mut Cx) -> R,
    ) -> R {
        let (x, m) = (&mut s.exchange, &mut s.membership);
        f(
            x,
            m,
            &mut Cx {
                env,
                l: &mut s.local,
            },
        )
    }

    #[test]
    fn servers_process_updates_and_age() {
        let mut sim = build_two_server_sim(tight_cfg());
        sim.run(SimTime::from_secs(5));
        for id in 0..2 {
            let s = server(&sim, id);
            assert!(s.processed_updates() > 5, "server {id} barely worked");
            assert!(s.age() > 0.0);
        }
        assert!(sim.metrics().counter("updates.processed") > 10);
    }

    #[test]
    fn synchronisation_shrinks_the_inter_server_gap() {
        // Clients keep pulling each server toward its local (non-IID) mean,
        // so the instantaneous values oscillate; the robust effect of the
        // token-triggered exchange is that the *gap* between the two server
        // models is much smaller than without synchronisation (0.5 vs 2.5).
        let gap = |cfg: SpykerConfig| {
            // Slow clients (600 ms) so exchanges are frequent relative to
            // the never-vanishing local pull of MeanTargetTrainer.
            let mut sim = build_two_server_sim_delay(cfg, SimTime::from_millis(600));
            sim.run(SimTime::from_secs(60));
            let v0 = server(&sim, 0).params().as_slice()[0] as f64;
            let v1 = server(&sim, 1).params().as_slice()[0] as f64;
            (v1 - v0, sim.metrics().counter("syncs.triggered"))
        };
        // Frequent sync: trigger every ~5 own updates or 1.0 age drift.
        let (gap_sync, syncs) = gap(SpykerConfig::paper_defaults(4, 2).with_thresholds(1.0, 2.0));
        let (gap_none, no_syncs) =
            gap(SpykerConfig::paper_defaults(4, 2).with_thresholds(1e12, 1e12));
        assert!(syncs > 0, "no synchronisation ever triggered");
        assert_eq!(no_syncs, 0);
        assert!(
            gap_sync < gap_none - 0.5,
            "sync did not shrink the gap: {gap_sync} vs {gap_none}"
        );
    }

    #[test]
    fn token_keeps_circulating() {
        let mut sim = build_two_server_sim(tight_cfg());
        sim.run(SimTime::from_secs(20));
        // At most one server holds the token (it may be in flight when the
        // run is cut off), and both servers triggered synchronisations —
        // which requires the token to have visited both.
        let holders = (0..2).filter(|&id| server(&sim, id).has_token()).count();
        assert!(holders <= 1, "token duplicated");
        for id in 0..2 {
            assert!(
                server(&sim, id).syncs_triggered() >= 1,
                "token never reached server {id}"
            );
        }
    }

    #[test]
    fn no_synchronisation_with_huge_thresholds() {
        let cfg = SpykerConfig::paper_defaults(4, 2).with_thresholds(1e12, 1e12);
        let mut sim = build_two_server_sim(cfg);
        sim.run(SimTime::from_secs(5));
        assert_eq!(sim.metrics().counter("syncs.triggered"), 0);
        assert_eq!(sim.metrics().counter("server.aggs"), 0);
    }

    #[test]
    fn without_sync_servers_stay_biased_to_their_clients() {
        let cfg = SpykerConfig::paper_defaults(4, 2).with_thresholds(1e12, 1e12);
        let mut sim = build_two_server_sim(cfg);
        sim.run(SimTime::from_secs(20));
        let v0 = server(&sim, 0).params().as_slice()[0];
        let v1 = server(&sim, 1).params().as_slice()[0];
        assert!((v0 - 0.5).abs() < 0.3, "server 0 at {v0}, expected ~0.5");
        assert!((v1 - 2.5).abs() < 0.3, "server 1 at {v1}, expected ~2.5");
    }

    #[test]
    fn single_server_never_tries_to_synchronise() {
        let mut sim = Simulation::new(NetworkConfig::aws(), 1);
        let cfg = SpykerConfig::paper_defaults(2, 1).with_thresholds(0.0, 1.0);
        let s = SpykerServer::new(0, vec![0], vec![1, 2], ParamVec::zeros(1), cfg);
        sim.add_node(Box::new(s), Region::Paris);
        for i in 0..2 {
            let trainer = MeanTargetTrainer::new(vec![i as f32], 5);
            sim.add_node(
                Box::new(FlClient::new(
                    0,
                    Box::new(trainer),
                    1,
                    SimTime::from_millis(100),
                )),
                Region::Paris,
            );
        }
        sim.run(SimTime::from_secs(5));
        assert_eq!(sim.metrics().counter("syncs.triggered"), 0);
        assert!(server(&sim, 0).processed_updates() > 0);
    }

    #[test]
    fn recovery_disabled_is_byte_identical_to_seed_behaviour() {
        // `recovery: None` must not arm a single timer or send one extra
        // byte: the whole run is indistinguishable from the pre-recovery
        // implementation.
        let run = |cfg: SpykerConfig| {
            let mut sim = build_two_server_sim(cfg);
            let report = sim.run(SimTime::from_secs(10));
            (
                report.events_processed,
                sim.metrics().counter("net.bytes"),
                sim.metrics().counter("net.messages"),
            )
        };
        let baseline = run(tight_cfg());
        assert_eq!(baseline, run(tight_cfg()));
        // And with recovery on, watchdogs do run (events differ).
        assert_ne!(baseline, run(recovery_cfg()));
    }

    #[test]
    fn churned_client_revives_in_both_recovery_configurations() {
        // Client 2 (server 0's first client) leaves at 2 s and rejoins at
        // 6 s. Its in-flight round is lost either way; on rejoin it knocks
        // with a ClientHello, and the server welcomes a client it already
        // knows even without the membership extension — so it works on in
        // both configurations (the server-side watchdog just gets there
        // first when recovery is on). Before the hello re-announce the
        // no-recovery run froze at its pre-churn count (~13 rounds in 2 s).
        let plan = FaultPlan::none().churn(2, SimTime::from_secs(2), SimTime::from_secs(6));
        let run = |cfg: SpykerConfig| {
            let mut sim = build_faulty_sim(cfg, plan.clone());
            sim.run(SimTime::from_secs(20));
            let s0 = server(&sim, 0);
            s0.local.ingest.update_counts().count(0)
        };
        let updates_without_recovery = run(tight_cfg());
        let updates_with_recovery = run(recovery_cfg());
        assert!(
            updates_without_recovery > 25,
            "rejoined client without recovery froze at {updates_without_recovery}"
        );
        assert!(
            updates_with_recovery > 25,
            "rejoined client with recovery froze at {updates_with_recovery}"
        );
    }

    /// Pending watchdog timers of `kind`: MockEnv fires none by itself.
    fn armed(env: &MockEnv, kind: u64) -> usize {
        env.timers
            .iter()
            .filter(|(_, t)| *t == tag(kind, 0))
            .count()
    }

    #[test]
    fn a_rejoining_server_runs_one_chain_of_each_watchdog() {
        use crate::membership::MembershipConfig;
        let cfg = recovery_cfg().with_membership(MembershipConfig::default());
        // Node 1 of an `n`-ring, back on it on a fresh slot.
        let rejoin = |n: usize| {
            let ring = RingView::fixed(&(0..n).collect::<Vec<_>>()).unsplice(1);
            let ring = ring.splice(1, Region::Sydney);
            let params = ParamVec::zeros(2);
            let ages = vec![1.0; n];
            let (age, bid_floor) = (1.0, 9);
            FlMsg::JoinAccept {
                ring,
                params,
                age,
                ages,
                bid_floor,
            }
        };
        // Leave, depart, be recommissioned, rejoin, adopt a client.
        let mut s = member(1, 2, cfg.clone());
        let mut env = MockEnv::new(1, 8);
        s.on_start(&mut env);
        s.on_timer(&mut env, tag(KIND_LEAVE, 0));
        s.on_timer(&mut env, tag(KIND_DRAIN, 0));
        s.on_message(&mut env, 9, FlMsg::ScaleUp { sponsor: 0 });
        s.on_message(&mut env, 0, rejoin(2));
        s.on_message(&mut env, 7, FlMsg::ClientHello);
        assert_eq!(s.membership_phase(), "live");
        assert_eq!(armed(&env, KIND_CLIENT_WATCHDOG), 1);
        // Stand down while the first chains run, then rejoin.
        let mut s = member(1, 3, cfg);
        let mut env = MockEnv::new(1, 8);
        s.on_start(&mut env);
        let ring = RingView::fixed(&[0, 1, 2]).unsplice(1);
        let bid_floor = 5;
        s.on_message(&mut env, 0, FlMsg::RingUpdate { ring, bid_floor });
        s.on_message(&mut env, 0, rejoin(3));
        s.on_message(&mut env, 7, FlMsg::ClientHello);
        assert_eq!(s.membership_phase(), "live");
        assert_eq!(armed(&env, KIND_CLIENT_WATCHDOG), 1);
        assert_eq!(armed(&env, KIND_TOKEN_WATCHDOG), 1);
    }

    #[test]
    fn trimmed_mean_buffer_flushes_past_an_attacker() {
        let cfg =
            SpykerConfig::paper_defaults(3, 1).with_aggregation(AggregationStrategy::TrimmedMean {
                batch: 3,
                trim_ratio: 0.34,
            });
        let mut s = SpykerServer::new(0, vec![0], vec![1, 2, 3], ParamVec::zeros(2), cfg);
        let mut env = MockEnv::new(0, 4);
        let send = |s: &mut SpykerServer, env: &mut MockEnv, from: NodeId, v: [f32; 2]| {
            s.on_message(
                env,
                from,
                FlMsg::ClientUpdate {
                    params: ParamVec::from_vec(v.to_vec()),
                    age: s.age(),
                    num_samples: 10,
                },
            );
        };
        send(&mut s, &mut env, 1, [1.0, 1.0]);
        send(&mut s, &mut env, 2, [1.2, 0.8]);
        // No step before the batch fills.
        assert_eq!(s.params().as_slice(), &[0.0, 0.0]);
        // The attacker's boosted, flipped update completes the batch…
        send(&mut s, &mut env, 3, [-50.0, -50.0]);
        assert_eq!(env.counter("agg.robust.flushes"), 1);
        // …and the trimmed estimate steps toward the honest clients.
        let p = s.params().as_slice();
        assert!(
            p[0] > 0.0 && p[1] > 0.0,
            "robust step went adversarial: {p:?}"
        );
        assert!(p[0] < 1.2 && p[1] < 1.2);
        // Every accepted update still ages the model and is counted.
        assert_eq!(s.processed_updates(), 3);
        assert!(s.age() > 0.0);
    }

    #[test]
    fn byzantine_nan_client_cannot_poison_the_default_config() {
        // End to end: a NaN-injecting client under the *default* config
        // (plain mean + non-finite gate) leaves every model finite, and
        // every poisoned update is visible in the agg.* metrics.
        let plan = FaultPlan::none().byzantine(2, ByzantineAttack::NanInject { prob: 1.0 });
        let mut sim = build_faulty_sim(tight_cfg(), plan);
        sim.run(SimTime::from_secs(10));
        assert!(sim.metrics().counter("fault.byzantine.nan") > 0);
        let rejected = sim.metrics().counter("agg.rejected.nonfinite");
        assert!(rejected > 0, "gate never fired");
        assert_eq!(rejected, sim.metrics().counter("agg.rejected"));
        for id in 0..2 {
            assert!(
                server(&sim, id).params().is_finite(),
                "server {id} was poisoned"
            );
        }
        // The honest clients kept the servers learning.
        assert!(server(&sim, 0).processed_updates() > 0);
    }

    #[test]
    fn default_aggregation_config_is_byte_identical_to_paper_exact_path() {
        // The aggregation/validation fields at their defaults must change
        // nothing observable: same events, same bytes, same messages as
        // the pre-robustness implementation (the gate can only fire on
        // non-finite payloads, which honest runs never produce).
        let run = |cfg: SpykerConfig| {
            let mut sim = build_two_server_sim(cfg);
            let report = sim.run(SimTime::from_secs(10));
            (
                report.events_processed,
                sim.metrics().counter("net.bytes"),
                sim.metrics().counter("net.messages"),
                sim.metrics().counter("agg.rejected"),
                server(&sim, 0).params().clone(),
            )
        };
        let explicit = {
            let mut cfg = tight_cfg();
            cfg.aggregation = AggregationStrategy::Mean;
            cfg.validation = crate::agg::ValidationConfig::default();
            cfg
        };
        let a = run(tight_cfg());
        let b = run(explicit);
        assert_eq!(a, b);
        assert_eq!(a.3, 0, "gate fired on an honest run");
    }

    #[test]
    fn decayed_learning_rate_reaches_fast_clients() {
        // One fast client (10 ms) and one slow client (1 s): after a while
        // the fast client's update count exceeds the mean and its lr decays.
        let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(1)), 1);
        let cfg = SpykerConfig::paper_defaults(2, 1);
        let s = SpykerServer::new(0, vec![0], vec![1, 2], ParamVec::zeros(1), cfg);
        sim.add_node(Box::new(s), Region::Paris);
        let fast = FlClient::new(
            0,
            Box::new(MeanTargetTrainer::new(vec![1.0], 5)),
            1,
            SimTime::from_millis(10),
        );
        let slow = FlClient::new(
            0,
            Box::new(MeanTargetTrainer::new(vec![0.0], 5)),
            1,
            SimTime::from_secs(1),
        );
        sim.add_node(Box::new(fast), Region::Paris);
        sim.add_node(Box::new(slow), Region::Paris);
        sim.run(SimTime::from_secs(10));
        let srv = server(&sim, 0);
        let counts = srv.local.ingest.update_counts().counts();
        assert!(
            counts[0] > 10 * counts[1],
            "fast client not fast: {counts:?}"
        );
        // Fast client's next lr must be decayed to the floor by now.
        let lr = srv
            .local
            .cfg
            .decay
            .decay(counts[0], srv.local.ingest.update_counts().mean());
        assert!(lr < 0.01, "expected decayed lr, got {lr}");
    }
}
