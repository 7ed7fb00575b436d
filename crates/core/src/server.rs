//! The Spyker server actor (Alg. 1 `Aggregation` + Alg. 2).

use std::any::Any;
use std::collections::{HashMap, HashSet};

use spyker_simnet::{Env, Node, NodeId, Region, SimTime};

use crate::config::SpykerConfig;
use crate::ingest::UpdateIngest;
use crate::membership::{join_bid, RingView};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::staleness::{blended_age, live_age_spread, server_agg_weight};
use crate::token::Token;

/// Timer tags encode their kind in the top 8 bits so one `on_timer`
/// dispatch can serve several watchdogs; the low 56 bits carry a
/// kind-specific payload (the exchange watchdog stores the `bid` it
/// guards).
const TAG_KIND_SHIFT: u32 = 56;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;
const KIND_TOKEN_WATCHDOG: u64 = 1;
const KIND_EXCHANGE_TIMEOUT: u64 = 2;
const KIND_CLIENT_WATCHDOG: u64 = 3;
const KIND_JOIN_RETRY: u64 = 4;
const KIND_LEAVE: u64 = 5;
const KIND_DRAIN: u64 = 6;

/// Where a server stands in the membership lifecycle (DESIGN.md §14).
/// Servers of a fixed-ring deployment are born [`Phase::Live`] and never
/// move; the other phases exist only with `SpykerConfig::membership`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Built but not on the ring: waits for a join trigger (timer or
    /// `ScaleUp`), then bootstraps from a sponsor via `JoinRequest` /
    /// `JoinAccept`.
    Standby,
    /// A full ring member.
    Live,
    /// Voluntarily left the ring; still forwards in-flight client updates
    /// to the adopting server until the drain timer fires.
    Draining,
    /// Fully departed; drops everything (counted, not processed).
    Departed,
}

fn tag(kind: u64, payload: u64) -> u64 {
    debug_assert!(payload <= TAG_PAYLOAD_MASK, "tag payload overflows");
    (kind << TAG_KIND_SHIFT) | (payload & TAG_PAYLOAD_MASK)
}

/// One Spyker server.
///
/// A server owns a model and an age, integrates client updates as they
/// arrive (never blocking on peers), and participates in the token-triggered
/// asynchronous exchange of server models. See the module-level pseudocode
/// mapping in `DESIGN.md` §2.
pub struct SpykerServer {
    /// This server's ring *slot* (stable index into every age vector).
    /// `usize::MAX` while standby — a slot is only assigned on join.
    server_idx: usize,
    /// Current view of the ring (epoch-versioned; see [`RingView`]).
    ring: RingView,
    /// Alg. 1's per-update path and its state: client book, reference
    /// history, validation gate, robust buffer, reply builder.
    ingest: UpdateIngest,

    params: ParamVec,
    age: f64,
    age_prev: f64,
    ages: Vec<f64>,

    cfg: SpykerConfig,

    token: Option<Token>,
    did_broadcast: HashSet<u64>,
    cnt: HashMap<u64, usize>,
    ongoing_synchro: bool,

    last_gossip_at: u64,
    syncs_triggered: u64,
    server_aggs: u64,

    /// Highest synchronisation id this server has observed (its own token,
    /// received tokens, and peer model broadcasts). Tokens arriving with a
    /// lower bid are stale copies and are dropped when recovery is on.
    highest_bid_seen: u64,
    /// `highest_bid_seen` at the last token-watchdog check; no advance
    /// between two checks means the token is presumed lost.
    bid_at_last_watchdog: u64,
    /// Per-client update counts at the last client-watchdog check.
    client_watch: Vec<u64>,
    tokens_regenerated: u64,
    degraded_syncs: u64,

    // --- Elastic membership state (inert without `cfg.membership`) ---
    /// Lifecycle phase; fixed-ring servers are born `Live` and never move.
    phase: Phase,
    /// This server's region, for nearest-survivor client re-homing and for
    /// advertising itself in a `JoinRequest`.
    my_region: Region,
    /// Who a standby server asks to join (set at build time or by
    /// `ScaleUp`).
    sponsor: Option<NodeId>,
    /// Delay before a standby server's first `JoinRequest`; `None` means
    /// it waits for a `ScaleUp` from the autoscaler.
    join_after: Option<SimTime>,
    /// When set, this server voluntarily leaves the ring at that time.
    leave_at: Option<SimTime>,
    /// Lowest synchronisation id valid under the current ring epoch: any
    /// token passing through this server is lifted to at least this bid,
    /// so copies predating a membership change are dominated everywhere.
    ring_bid_floor: u64,
    /// Slots that answered each exchange bid we drove (holder-side record
    /// for crash-eviction miss counting).
    answered: HashMap<u64, Vec<usize>>,
    /// Consecutive exchange misses per live slot; reset by any sign of
    /// life, eviction at `MembershipConfig::evict_after_misses`.
    peer_misses: HashMap<usize, u32>,
    /// Where a draining server redirects in-flight client traffic.
    drain_target: Option<NodeId>,
    /// Whether the client watchdog timer chain is running (it must be
    /// started at most once; client adoption may start it late).
    client_watch_armed: bool,
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
        let my_region = ring.members[server_idx].region;
        let token = (server_idx == 0).then(|| Token::initial(ring.slots));
        Self {
            highest_bid_seen: token.as_ref().map_or(0, |t| t.bid),
            token,
            ..Self::base(server_idx, ring, clients, init_params, cfg, my_region)
        }
    }

    /// A live, tokenless server in its initial protocol state: what
    /// [`SpykerServer::new`] and [`SpykerServer::standby`] share.
    fn base(
        server_idx: usize,
        ring: RingView,
        clients: Vec<NodeId>,
        params: ParamVec,
        cfg: SpykerConfig,
        my_region: Region,
    ) -> Self {
        Self {
            server_idx,
            ages: vec![0.0; ring.slots],
            phase: Phase::Live,
            ring,
            client_watch: vec![0; clients.len()],
            ingest: UpdateIngest::from_config(clients, &cfg),
            params,
            age: 0.0,
            age_prev: 0.0,
            cfg,
            token: None,
            did_broadcast: HashSet::new(),
            cnt: HashMap::new(),
            ongoing_synchro: false,
            last_gossip_at: 0,
            syncs_triggered: 0,
            server_aggs: 0,
            highest_bid_seen: 0,
            bid_at_last_watchdog: 0,
            tokens_regenerated: 0,
            degraded_syncs: 0,
            my_region,
            sponsor: None,
            join_after: None,
            leave_at: None,
            ring_bid_floor: 0,
            answered: HashMap::new(),
            peer_misses: HashMap::new(),
            drain_target: None,
            client_watch_armed: false,
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
        let no_ring = RingView::fixed(&[]);
        Self {
            phase: Phase::Standby,
            sponsor,
            join_after,
            ..Self::base(usize::MAX, no_ring, Vec::new(), init_params, cfg, region)
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
            self.cfg.membership.is_some(),
            "voluntary leave needs membership enabled"
        );
        self.leave_at = Some(at);
        self
    }

    /// This server's current model.
    pub fn params(&self) -> &ParamVec {
        &self.params
    }

    /// This server's current model age `A_i`.
    pub fn age(&self) -> f64 {
        self.age
    }

    /// Number of client updates this server has integrated.
    pub fn processed_updates(&self) -> u64 {
        self.ingest.processed()
    }

    /// Number of synchronisations this server has triggered as token holder.
    pub fn syncs_triggered(&self) -> u64 {
        self.syncs_triggered
    }

    /// Number of peer models this server has aggregated.
    pub fn server_aggs(&self) -> u64 {
        self.server_aggs
    }

    /// Number of lost tokens this server has regenerated (recovery only).
    pub fn tokens_regenerated(&self) -> u64 {
        self.tokens_regenerated
    }

    /// Number of exchanges this server forwarded the token for before every
    /// peer had answered (recovery only).
    pub fn degraded_syncs(&self) -> u64 {
        self.degraded_syncs
    }

    /// Number of updates (client deltas and peer models) the validation
    /// gate rejected. See [`crate::agg::ValidationConfig`].
    pub fn rejected_updates(&self) -> u64 {
        self.ingest.rejected()
    }

    /// `true` while this server holds the ring token.
    pub fn has_token(&self) -> bool {
        self.token.is_some()
    }

    /// Per-client update counts (local client index order).
    pub fn update_counts(&self) -> &[u64] {
        self.ingest.update_counts().counts()
    }

    /// This server's ring slot (its stable index into every age vector).
    /// `usize::MAX` while standby — a slot is only assigned on join.
    pub fn server_idx(&self) -> usize {
        self.server_idx
    }

    /// Current view of the server ring (epoch-versioned membership
    /// snapshot; fixed deployments stay at epoch 0 forever).
    pub fn ring(&self) -> &RingView {
        &self.ring
    }

    /// Epoch of this server's current ring view. Monotone non-decreasing —
    /// the epoch-monotonicity invariant checked by `spyker-simtest`.
    pub fn ring_epoch(&self) -> u64 {
        self.ring.epoch
    }

    /// Membership lifecycle phase, for oracles and reports.
    pub fn membership_phase(&self) -> &'static str {
        match self.phase {
            Phase::Standby => "standby",
            Phase::Live => "live",
            Phase::Draining => "draining",
            Phase::Departed => "departed",
        }
    }

    /// `true` while this server is a live ring member (always, on a fixed
    /// ring).
    pub fn is_ring_member(&self) -> bool {
        self.phase == Phase::Live
    }

    /// Number of clients currently homed on this server.
    pub fn num_clients(&self) -> usize {
        self.ingest.clients().len()
    }

    /// The bid of the token this server currently holds, if any.
    ///
    /// Read-only protocol state for invariant oracles (`spyker-simtest`):
    /// together with [`SpykerServer::has_token`] this is the global token
    /// table — at most one live token should exist per regeneration epoch.
    pub fn token_bid(&self) -> Option<u64> {
        self.token.as_ref().map(|t| t.bid)
    }

    /// This server's knowledge of every server's age (`ages[j]` is the
    /// freshest age it has seen for server `j`; its own entry tracks its
    /// live age). Peer entries are only ever merged upward, so each is
    /// monotone non-decreasing over a run — the age-monotonicity invariant.
    pub fn known_ages(&self) -> &[f64] {
        &self.ages
    }

    /// Highest synchronisation bid this server has observed (own tokens,
    /// received tokens, peer broadcasts). Monotone non-decreasing.
    pub fn highest_bid_seen(&self) -> u64 {
        self.highest_bid_seen
    }

    /// `true` while this server is inside a token-triggered exchange it
    /// initiated (holding the token until every peer model arrives).
    pub fn is_synchronising(&self) -> bool {
        self.ongoing_synchro
    }

    /// Exchange ledger: how many peer models this server has collected for
    /// synchronisation `bid` (Alg. 2's `cnt`).
    pub fn models_counted(&self, bid: u64) -> usize {
        self.cnt.get(&bid).copied().unwrap_or(0)
    }

    /// Exchange ledger: `true` if this server has already broadcast its
    /// model for synchronisation `bid` (it answers each bid at most once).
    pub fn has_broadcast(&self, bid: u64) -> bool {
        self.did_broadcast.contains(&bid)
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
        self.token = Some(Token {
            bid,
            ages: self.ages.clone(),
        });
        self.highest_bid_seen = self.highest_bid_seen.max(bid);
    }

    /// Position of this server in the current member list (equals
    /// `server_idx` on a fixed ring; used for watchdog staggering).
    fn ring_position(&self) -> usize {
        self.ring
            .members
            .iter()
            .position(|m| m.slot == self.server_idx)
            .unwrap_or(self.server_idx)
    }

    /// Alg. 1 `Aggregation` for one client update, through the shared
    /// [`UpdateIngest`] path; `reply` is `false` only for a
    /// [`FlMsg::RedirectedUpdate`].
    fn on_client_update(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        from: NodeId,
        update: &ParamVec,
        update_age: f64,
        reply: bool,
    ) {
        let k = match self.ingest.lookup(from) {
            Some(k) => k,
            // With elastic membership a re-homed client's first contact
            // may be the update itself (its ClientHello can be lost):
            // adopt on first touch.
            None if self.cfg.membership.is_some() && self.phase == Phase::Live => {
                self.adopt_client(env, from)
            }
            None => {
                // Reachable from network bytes on the TCP transport: count
                // and drop rather than assert (DESIGN.md §13).
                env.add_counter("net.unexpected", 1);
                return;
            }
        };
        env.span_enter("server.aggregate");
        env.busy(self.cfg.agg_cost);
        let integrated = self.ingest.client_update(
            env,
            &mut self.params,
            &mut self.age,
            k,
            update,
            update_age,
            reply,
        );
        if integrated {
            self.ages[self.server_idx] = self.age;
            // l. 20 (the client never waits on server-server
            // synchronisation: its reply is already on the wire).
            self.check_synchronization(env);
        }
        env.span_exit("server.aggregate");
    }

    /// Would `checkSynchronization` fire right now (Alg. 2 l. 22)? The
    /// drift term only ranges over *live* slots: a departed server's frozen
    /// age entry must not keep the ring re-synchronising forever.
    fn sync_wanted(&self) -> bool {
        let drift = live_age_spread(&self.ages, self.ring.live_slots()) >= self.cfg.h_inter;
        let aged = self.age - self.age_prev >= self.cfg.h_intra;
        drift || aged
    }

    /// Alg. 2 `checkSynchronization`.
    fn check_synchronization(&mut self, env: &mut dyn Env<FlMsg>) {
        if self.ring.len() < 2 {
            return; // a single server has no one to synchronise with
        }
        if !self.sync_wanted() {
            return;
        }
        match &self.token {
            Some(token) if !self.ongoing_synchro => {
                // l. 23–27: trigger an exchange under the current bid.
                let bid = token.bid;
                self.age_prev = self.age;
                self.ongoing_synchro = true;
                env.span_enter("server.exchange");
                self.did_broadcast.insert(bid);
                self.cnt.insert(bid, 1);
                self.syncs_triggered += 1;
                env.add_counter("syncs.triggered", 1);
                let age = self.age;
                let idx = self.server_idx;
                for peer in self.ring.peers_of(self.server_idx) {
                    env.send(
                        peer,
                        FlMsg::ServerModel {
                            params: self.params.clone(),
                            age,
                            bid,
                            server_idx: idx,
                        },
                    );
                }
                // Recovery: do not wait forever for crashed peers' models.
                if let Some(rec) = &self.cfg.recovery {
                    env.set_timer(rec.exchange_timeout, tag(KIND_EXCHANGE_TIMEOUT, bid));
                }
            }
            Some(_) => { /* already synchronising under this token */ }
            None => {
                // l. 29: advertise our age so the holder can trigger.
                // Rate-limited to one gossip per `gossip_backoff` locally
                // processed updates (see SpykerConfig::gossip_backoff).
                let processed = self.ingest.processed();
                if processed >= self.last_gossip_at + self.cfg.gossip_backoff {
                    self.last_gossip_at = processed;
                    let age = self.age;
                    let idx = self.server_idx;
                    for peer in self.ring.peers_of(self.server_idx) {
                        env.send(
                            peer,
                            FlMsg::AgeGossip {
                                age,
                                server_idx: idx,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Liveness + bounds guard on slot-indexed state: out-of-range slots
    /// come only from hostile bytes (`net.unexpected`); in-range dead slots
    /// are messages from a departed epoch still in flight
    /// (`membership.stale_slot`). Returns `true` when the slot is safe to
    /// touch.
    fn slot_is_current(&self, env: &mut dyn Env<FlMsg>, slot: usize) -> bool {
        if slot >= self.ages.len() {
            env.add_counter("net.unexpected", 1);
            return false;
        }
        if self.cfg.membership.is_some() && !self.ring.is_live_slot(slot) {
            env.add_counter("membership.stale_slot", 1);
            return false;
        }
        true
    }

    /// Alg. 2 `RcvAge`.
    fn on_age_gossip(&mut self, env: &mut dyn Env<FlMsg>, server_idx: usize, age: f64) {
        if !self.slot_is_current(env, server_idx) {
            return;
        }
        self.ages[server_idx] = self.ages[server_idx].max(age);
        if self.cfg.membership.is_some() {
            self.peer_misses.remove(&server_idx);
        }
        self.check_synchronization(env);
    }

    /// Alg. 2 `RcvToken`.
    fn on_token(&mut self, env: &mut dyn Env<FlMsg>, mut token: Token) {
        // Recovery: after a regeneration the old token may still be in
        // flight (e.g. it was crossing a healed partition). Any token whose
        // bid is below the highest id we have witnessed is such a stale
        // copy; dropping it keeps regeneration idempotent — at most one
        // token survives per bid range.
        if self.cfg.recovery.is_some() && token.bid < self.highest_bid_seen {
            env.add_counter("token.stale_dropped", 1);
            return;
        }
        for (local, &carried) in self.ages.iter_mut().zip(&token.ages) {
            *local = local.max(carried);
        }
        // l. 17: stamp a fresh bid for the exchange this holder may trigger.
        token.bid += 1;
        // Membership: a token crossing into our ring epoch is lifted over
        // the epoch's bid floor (and grown to its slot space), so every
        // copy still circulating under the old shape is dominated. The
        // floor only rises through *held* tokens — raising
        // `highest_bid_seen` on mere epoch adoption would make every
        // member stale-drop the one live token.
        if token.bid < self.ring_bid_floor {
            token.bid = self.ring_bid_floor;
        }
        token.extend_to(self.ring.slots);
        self.highest_bid_seen = self.highest_bid_seen.max(token.bid);
        // A token accepted while an exchange is still open (possible only
        // with recovery, when a regenerated token overtakes the one that
        // was driving the exchange) supersedes that exchange: close it, or
        // this server would stay `ongoing_synchro` under a bid it never
        // broadcast — the exchange can then neither complete nor time out
        // (both compare against the *held* bid) and the server wedges out
        // of the sync ring holding the token forever.
        if self.ongoing_synchro {
            self.ongoing_synchro = false;
            env.span_exit("server.exchange");
            env.add_counter("sync.superseded", 1);
        }
        env.gauge_set("sync.token_holder", self.server_idx as f64);
        self.token = Some(token);
        self.check_synchronization(env);
    }

    /// Alg. 2 `RcvModel` + `ServerAgg`.
    fn on_server_model(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        peer_idx: usize,
        peer_params: ParamVec,
        peer_age: f64,
        bid: u64,
    ) {
        if !self.slot_is_current(env, peer_idx) {
            return;
        }
        self.highest_bid_seen = self.highest_bid_seen.max(bid);
        self.ages[peer_idx] = self.ages[peer_idx].max(peer_age);
        if self.cfg.membership.is_some() {
            self.peer_misses.remove(&peer_idx);
            // Holder-side exchange record for crash eviction.
            let slots = self.answered.entry(bid).or_default();
            if !slots.contains(&peer_idx) {
                slots.push(peer_idx);
            }
        }
        // l. 32–35: echo our model once per synchronisation id.
        if !self.did_broadcast.contains(&bid) {
            self.did_broadcast.insert(bid);
            self.age_prev = self.age;
            let age = self.age;
            let idx = self.server_idx;
            for peer in self.ring.peers_of(self.server_idx) {
                env.send(
                    peer,
                    FlMsg::ServerModel {
                        params: self.params.clone(),
                        age,
                        bid,
                        server_idx: idx,
                    },
                );
            }
        }
        // A peer model the gate turns away only skips the merge: the echo
        // above and the token bookkeeping below must still run, or the
        // token holder waits forever on this bid.
        if self
            .ingest
            .admit_peer(env, &self.params, &peer_params, peer_age)
        {
            // `ServerAgg` (ll. 45-50): sigmoid-weighted merge plus age blend.
            env.busy(self.cfg.agg_cost);
            let w = server_agg_weight(self.cfg.phi, self.age, peer_age);
            self.params.lerp_toward(&peer_params, self.cfg.eta_a * w);
            self.age = blended_age(self.cfg.eta_a, w, self.age, peer_age);
            self.ages[self.server_idx] = self.age;
            self.server_aggs += 1;
            env.add_counter("server.aggs", 1);
        }
        // l. 37–43: the token holder forwards the token once it has seen
        // every server's model for its bid.
        if let Some(token) = &self.token {
            if token.bid == bid {
                let seen = self.cnt.entry(bid).or_insert(0);
                *seen += 1;
                // `>=`, not `==`: the ring may have shrunk mid-exchange.
                if *seen >= self.ring.len() {
                    self.forward_token(env);
                }
            }
        }
    }

    /// Hands the token to the next server on the ring, carrying the
    /// freshest age knowledge, and closes the local exchange.
    fn forward_token(&mut self, env: &mut dyn Env<FlMsg>) {
        // A stray or duplicate trigger — e.g. an exchange timeout racing
        // the normal completion after recovery — must not abort the run:
        // log the spurious call and keep serving.
        let Some(mut token) = self.token.take() else {
            env.add_counter("token.forward_spurious", 1);
            if self.ongoing_synchro {
                env.span_exit("server.exchange");
            }
            self.ongoing_synchro = false;
            return;
        };
        if self.cfg.membership.is_some() {
            self.answered.remove(&token.bid);
        }
        token.ages = self.ages.clone();
        let next = self.ring.next_after(env.me()).map(|m| m.node);
        match next {
            Some(next) => env.send(next, FlMsg::TokenPass(token)),
            // The ring shrank to just us: nowhere to forward, keep holding
            // (a one-ring never synchronises, so the token just waits for
            // the next join).
            None => self.token = Some(token),
        }
        if self.ongoing_synchro {
            env.span_exit("server.exchange");
        }
        self.ongoing_synchro = false;
    }

    /// Arms (or re-arms after a restart) the recovery watchdog timers.
    /// No-op without a [`crate::config::RecoveryConfig`].
    fn arm_watchdogs(&mut self, env: &mut dyn Env<FlMsg>) {
        let Some(rec) = self.cfg.recovery else {
            return;
        };
        if self.ring.len() > 1 {
            let stagger = rec.token_timeout * (self.ring_position() as u64 + 1);
            env.set_timer(stagger, tag(KIND_TOKEN_WATCHDOG, 0));
        }
        // Recomputed, not just set: a crash killed any previous chain.
        self.client_watch_armed = !self.ingest.clients().is_empty();
        if self.client_watch_armed {
            env.set_timer(rec.client_timeout, tag(KIND_CLIENT_WATCHDOG, 0));
        }
    }

    /// Token watchdog: if no synchronisation id advanced since the last
    /// check, the token is presumed lost and regenerated. The bid jumps by
    /// the ring size so the regenerated token dominates any stale copy
    /// regardless of how many in-flight increments that copy still
    /// receives before being dropped.
    fn on_token_watchdog(&mut self, env: &mut dyn Env<FlMsg>) {
        let Some(rec) = self.cfg.recovery else {
            return;
        };
        // A server that left the ring stops guarding its token.
        if self.phase != Phase::Live {
            return;
        }
        let stalled = self.highest_bid_seen == self.bid_at_last_watchdog;
        self.bid_at_last_watchdog = self.highest_bid_seen;
        // Regenerate only when the ring is silent AND this server actually
        // wants to synchronise: an idle ring (thresholds not met anywhere)
        // legitimately produces no bid traffic, and regenerating then
        // would breed one idle token per server.
        if stalled && self.token.is_none() && self.sync_wanted() {
            let bid = self.highest_bid_seen.max(self.ring_bid_floor) + self.ring.len() as u64;
            self.highest_bid_seen = bid;
            self.token = Some(Token {
                bid,
                ages: self.ages.clone(),
            });
            self.tokens_regenerated += 1;
            env.add_counter("token.regenerated", 1);
            self.check_synchronization(env);
        }
        let stagger = rec.token_timeout * (self.ring_position() as u64 + 1);
        env.set_timer(stagger, tag(KIND_TOKEN_WATCHDOG, 0));
    }

    /// Exchange timeout: the token holder stops waiting for peers that
    /// never answered `bid` and forwards the token with the subset it has.
    fn on_exchange_timeout(&mut self, env: &mut dyn Env<FlMsg>, bid: u64) {
        let still_waiting =
            self.ongoing_synchro && self.token.as_ref().is_some_and(|t| t.bid == bid);
        if still_waiting {
            // Crash eviction: every live slot that did not answer this
            // exchange takes a miss; enough consecutive misses and the
            // holder unsplices it (the existing recovery path — degraded
            // forward + watchdogs — carries the ring meanwhile).
            if self.cfg.membership.is_some() {
                let answered = self.answered.remove(&bid).unwrap_or_default();
                let missing: Vec<usize> = self
                    .ring
                    .live_slots()
                    .filter(|&s| s != self.server_idx && !answered.contains(&s))
                    .collect();
                for slot in missing {
                    self.note_exchange_miss(env, slot);
                }
            }
            self.degraded_syncs += 1;
            env.add_counter("sync.degraded", 1);
            self.forward_token(env);
        }
    }

    /// One more consecutive exchange miss for `slot`; evict at the
    /// configured budget.
    fn note_exchange_miss(&mut self, env: &mut dyn Env<FlMsg>, slot: usize) {
        let Some(mcfg) = self.cfg.membership else {
            return;
        };
        let misses = self.peer_misses.entry(slot).or_insert(0);
        *misses += 1;
        if *misses >= mcfg.evict_after_misses {
            self.peer_misses.remove(&slot);
            self.evict_slot(env, slot);
        }
    }

    /// Crash-departs `slot`: unsplice it, adopt the shrunk ring, and tell
    /// everyone — including the evicted node, which (if merely partitioned,
    /// not dead) stands down and re-joins through a survivor.
    fn evict_slot(&mut self, env: &mut dyn Env<FlMsg>, slot: usize) {
        let Some(member) = self.ring.member_of_slot(slot) else {
            return;
        };
        let evicted = member.node;
        let floor = join_bid(self.highest_bid_seen, self.ring.len());
        let ring = self.ring.unsplice(slot);
        env.add_counter("membership.evictions", 1);
        self.adopt_ring(env, ring, floor);
        let update = FlMsg::RingUpdate {
            ring: self.ring.clone(),
            bid_floor: self.ring_bid_floor,
        };
        for peer in self.ring.peers_of(self.server_idx) {
            env.send(peer, update.clone());
        }
        env.send(evicted, update);
    }

    /// Installs a newer ring epoch. Grows local age knowledge to the new
    /// slot space, lifts the bid floor, and re-stamps a *held* token over
    /// it. A holder mid-exchange closes that exchange first: both the
    /// completion check and the exchange timeout compare against the held
    /// bid, which the re-stamp changes — leaving it open would wedge the
    /// holder (the PR 4 seed-164 lesson).
    fn adopt_ring(&mut self, env: &mut dyn Env<FlMsg>, ring: RingView, bid_floor: u64) {
        if ring.epoch <= self.ring.epoch {
            return; // stale or duplicate update
        }
        self.ring = ring;
        self.ring_bid_floor = self.ring_bid_floor.max(bid_floor);
        if self.ages.len() < self.ring.slots {
            self.ages.resize(self.ring.slots, 0.0);
        }
        if self.token.is_some() {
            if self.ongoing_synchro {
                self.ongoing_synchro = false;
                env.span_exit("server.exchange");
                env.add_counter("sync.superseded", 1);
            }
            if let Some(t) = &mut self.token {
                t.extend_to(self.ring.slots);
                if t.bid < self.ring_bid_floor {
                    t.bid = self.ring_bid_floor;
                }
                self.highest_bid_seen = self.highest_bid_seen.max(t.bid);
            }
        }
        env.gauge_set("membership.epoch", self.ring.epoch as f64);
        env.gauge_set("membership.ring_size", self.ring.len() as f64);
        self.check_synchronization(env);
    }

    /// A live member sponsors a join: splice the requester onto a fresh
    /// slot, fan the new epoch out to the members, and bootstrap the joiner
    /// from our live state. Idempotent — a retried request re-sends the
    /// current view.
    fn on_join_request(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, region: usize) {
        if self.cfg.membership.is_none() || self.phase != Phase::Live {
            env.add_counter("net.unexpected", 1);
            return;
        }
        let region = *Region::ALL.get(region).unwrap_or(&Region::ALL[0]);
        if self.ring.member_of_node(from).is_none() {
            env.span_enter("membership.join");
            let floor = join_bid(self.highest_bid_seen, self.ring.len());
            let ring = self.ring.splice(from, region);
            env.add_counter("membership.joins", 1);
            let update = FlMsg::RingUpdate {
                ring: ring.clone(),
                bid_floor: floor,
            };
            for m in &ring.members {
                if m.node != from && m.slot != self.server_idx {
                    env.send(m.node, update.clone());
                }
            }
            // Bootstrap *before* adopting: adoption may immediately
            // trigger an exchange over the new epoch, and the joiner
            // should be live by the time it sees one.
            let mut ages = self.ages.clone();
            ages.resize(ring.slots.max(ages.len()), 0.0);
            env.send(
                from,
                FlMsg::JoinAccept {
                    ring: ring.clone(),
                    params: self.params.clone(),
                    age: self.age,
                    ages,
                    bid_floor: self.ring_bid_floor.max(floor),
                },
            );
            self.adopt_ring(env, ring, floor);
            env.span_exit("membership.join");
        } else {
            env.send(
                from,
                FlMsg::JoinAccept {
                    ring: self.ring.clone(),
                    params: self.params.clone(),
                    age: self.age,
                    ages: self.ages.clone(),
                    bid_floor: self.ring_bid_floor,
                },
            );
        }
    }

    /// The joiner goes live: install the sponsor's model, ages and ring,
    /// take the assigned slot, and announce our age so exchanges include
    /// us.
    fn on_join_accept(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        ring: RingView,
        params: ParamVec,
        age: f64,
        mut ages: Vec<f64>,
        bid_floor: u64,
    ) {
        let Some(member) = ring.member_of_node(env.me()) else {
            env.add_counter("net.unexpected", 1);
            return;
        };
        let slot = member.slot;
        self.server_idx = slot;
        self.phase = Phase::Live;
        self.params = params;
        self.age = age;
        self.age_prev = age;
        if ages.len() < ring.slots {
            ages.resize(ring.slots, 0.0);
        }
        // Our model *is* the sponsor's model, so our slot starts at its age.
        ages[slot] = age;
        self.ages = ages;
        self.ring = ring;
        self.ring_bid_floor = self.ring_bid_floor.max(bid_floor);
        // Any token below the floor predates our epoch: refuse it outright
        // (with recovery) — `on_token`'s floor re-stamp covers the rest.
        self.highest_bid_seen = self.highest_bid_seen.max(bid_floor);
        env.gauge_set("membership.epoch", self.ring.epoch as f64);
        env.gauge_set("membership.ring_size", self.ring.len() as f64);
        env.gauge_set(&format!("scale.load.s{slot}"), 0.0);
        self.arm_watchdogs(env);
        let announce_age = self.age;
        for peer in self.ring.peers_of(self.server_idx) {
            env.send(
                peer,
                FlMsg::AgeGossip {
                    age: announce_age,
                    server_idx: slot,
                },
            );
        }
    }

    /// A ring update from a sponsor, a leaver, or an evictor. A live server
    /// finding itself *excluded* from the newer epoch was evicted (e.g. a
    /// partition outlived the miss budget): it stands down and re-joins.
    fn on_ring_update(&mut self, env: &mut dyn Env<FlMsg>, ring: RingView, bid_floor: u64) {
        if ring.epoch <= self.ring.epoch {
            env.add_counter("membership.late", 1);
            return;
        }
        let me = env.me();
        if ring.member_of_node(me).is_none() {
            self.stand_down(env, ring, bid_floor);
            return;
        }
        self.adopt_ring(env, ring, bid_floor);
    }

    /// Evicted while alive: shed clients toward the nearest survivor, drop
    /// any (by-construction stale) token, and go standby to re-join.
    fn stand_down(&mut self, env: &mut dyn Env<FlMsg>, ring: RingView, bid_floor: u64) {
        let Some(mcfg) = self.cfg.membership else {
            return;
        };
        env.add_counter("membership.stand_downs", 1);
        if self.ongoing_synchro {
            self.ongoing_synchro = false;
            env.span_exit("server.exchange");
        }
        self.token = None;
        if let Some(target) = ring.nearest_to(self.my_region, env.me()).map(|m| m.node) {
            for &client in self.ingest.clients() {
                env.send(client, FlMsg::Rehome { server: target });
            }
        }
        if self.server_idx != usize::MAX {
            env.gauge_set(&format!("scale.load.s{}", self.server_idx), 0.0);
        }
        self.ingest.clear_clients();
        self.ingest.forget_sent_models();
        self.client_watch.clear();
        self.phase = Phase::Standby;
        self.sponsor = ring.members.first().map(|m| m.node);
        self.server_idx = usize::MAX;
        self.ring = ring;
        self.ring_bid_floor = self.ring_bid_floor.max(bid_floor);
        self.highest_bid_seen = self.highest_bid_seen.max(bid_floor);
        env.set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
    }

    /// Voluntary leave: hand the token to our ring successor re-stamped
    /// over the new epoch's floor, re-home every client to the nearest
    /// survivor, broadcast the shrunk ring, and drain.
    fn begin_leave(&mut self, env: &mut dyn Env<FlMsg>) {
        let Some(mcfg) = self.cfg.membership else {
            return;
        };
        if self.phase != Phase::Live || self.ring.len() < 2 {
            return; // not a member, or the last server must stay
        }
        env.span_enter("membership.leave");
        env.add_counter("membership.leaves", 1);
        let me = env.me();
        let succ = self.ring.next_after(me).map(|m| m.node);
        let floor = join_bid(self.highest_bid_seen, self.ring.len());
        let ring = self.ring.unsplice(self.server_idx);
        if self.ongoing_synchro {
            self.ongoing_synchro = false;
            env.span_exit("server.exchange");
            env.add_counter("sync.superseded", 1);
        }
        if let Some(mut token) = self.token.take() {
            token.ages = self.ages.clone();
            token.bid = token.bid.max(floor);
            self.highest_bid_seen = self.highest_bid_seen.max(token.bid);
            if let Some(succ) = succ {
                env.send(succ, FlMsg::TokenPass(token));
            }
        }
        let target = ring
            .nearest_to(self.my_region, me)
            .map(|m| m.node)
            .expect("a ring of >= 2 leaves a survivor");
        for &client in self.ingest.clients() {
            env.send(client, FlMsg::Rehome { server: target });
        }
        let update = FlMsg::RingUpdate {
            ring: ring.clone(),
            bid_floor: floor,
        };
        for m in &ring.members {
            env.send(m.node, update.clone());
        }
        env.gauge_set(&format!("scale.load.s{}", self.server_idx), 0.0);
        // The clients are gone (re-homed): drop their state so a later
        // recommission starts clean.
        self.ingest.clear_clients();
        self.client_watch.clear();
        self.client_watch_armed = false;
        self.phase = Phase::Draining;
        self.drain_target = Some(target);
        self.ring = ring;
        self.ring_bid_floor = self.ring_bid_floor.max(floor);
        env.gauge_set("membership.epoch", self.ring.epoch as f64);
        env.set_timer(mcfg.drain_timeout, tag(KIND_DRAIN, 0));
        env.span_exit("membership.leave");
    }

    /// Registers a walk-in client (re-homed from a leaver or failed over
    /// from a crashed server) and returns its local index.
    fn adopt_client(&mut self, env: &mut dyn Env<FlMsg>, id: NodeId) -> usize {
        if let Some(k) = self.ingest.lookup(id) {
            return k;
        }
        let k = self.ingest.adopt(id);
        self.client_watch.push(0);
        env.add_counter("membership.adoptions", 1);
        env.gauge_set(
            &format!("scale.load.s{}", self.server_idx),
            self.ingest.clients().len() as f64,
        );
        if !self.client_watch_armed {
            if let Some(rec) = self.cfg.recovery {
                env.set_timer(rec.client_timeout, tag(KIND_CLIENT_WATCHDOG, 0));
                self.client_watch_armed = true;
            }
        }
        k
    }

    /// Draining: hands `client`'s in-flight update to the adopting server.
    fn redirect(
        &mut self,
        env: &mut dyn Env<FlMsg>,
        client: NodeId,
        params: ParamVec,
        age: f64,
        num_samples: usize,
    ) {
        if let Some(target) = self.drain_target {
            env.add_counter("membership.redirected", 1);
            let msg = FlMsg::RedirectedUpdate {
                client,
                params,
                age,
                num_samples,
            };
            env.send(target, msg);
        }
    }

    /// Standby: the autoscaler picked us — ask the sponsor to splice us in.
    fn on_scale_up(&mut self, env: &mut dyn Env<FlMsg>, sponsor: NodeId) {
        let Some(mcfg) = self.cfg.membership else {
            return;
        };
        self.sponsor = Some(sponsor);
        env.send(
            sponsor,
            FlMsg::JoinRequest {
                region: self.my_region.index(),
            },
        );
        env.set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
    }

    /// Join-retry tick: still standby means the request or the accept was
    /// lost — ask again (the sponsor side is idempotent).
    fn on_join_retry(&mut self, env: &mut dyn Env<FlMsg>) {
        if self.phase != Phase::Standby {
            return;
        }
        let Some(mcfg) = self.cfg.membership else {
            return;
        };
        let Some(sponsor) = self.sponsor else {
            return;
        };
        env.send(
            sponsor,
            FlMsg::JoinRequest {
                region: self.my_region.index(),
            },
        );
        env.set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
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

impl Node<FlMsg> for SpykerServer {
    fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
        if self.phase == Phase::Standby {
            if let Some(at) = self.join_after {
                env.set_timer(at, tag(KIND_JOIN_RETRY, 0));
            }
            return;
        }
        // Kick every client off with the initial model.
        self.ingest.broadcast(env, &self.params, self.age);
        self.arm_watchdogs(env);
        if self.cfg.membership.is_some() {
            env.gauge_set("membership.epoch", self.ring.epoch as f64);
            env.gauge_set("membership.ring_size", self.ring.len() as f64);
            env.gauge_set(
                &format!("scale.load.s{}", self.server_idx),
                self.ingest.clients().len() as f64,
            );
            if let Some(at) = self.leave_at {
                env.set_timer(at, tag(KIND_LEAVE, 0));
            }
        }
    }

    fn on_message(&mut self, env: &mut dyn Env<FlMsg>, from: NodeId, msg: FlMsg) {
        // Phase routing (inert without membership: fixed-ring servers are
        // permanently `Live` and fall straight through).
        match self.phase {
            Phase::Live => {}
            Phase::Standby => {
                match msg {
                    FlMsg::JoinAccept {
                        ring,
                        params,
                        age,
                        ages,
                        bid_floor,
                    } => self.on_join_accept(env, ring, params, age, ages, bid_floor),
                    FlMsg::ScaleUp { sponsor } => self.on_scale_up(env, sponsor),
                    FlMsg::RingUpdate { ring, bid_floor } => {
                        // Keep the view of whom to ask fresh while waiting.
                        if ring.epoch > self.ring.epoch {
                            self.sponsor = ring.members.first().map(|m| m.node);
                            self.ring = ring;
                            self.ring_bid_floor = self.ring_bid_floor.max(bid_floor);
                        }
                    }
                    _ => env.add_counter("membership.late", 1),
                }
                return;
            }
            Phase::Draining => {
                match msg {
                    // In-flight update that raced our leave: redirect it
                    // to the adopting server.
                    FlMsg::ClientUpdate {
                        params,
                        age,
                        num_samples,
                    } => self.redirect(env, from, params, age, num_samples),
                    // Encoded one: we are the only server holding this
                    // client's reference history, so decode *here* and
                    // redirect the dense result.
                    FlMsg::EncodedUpdate {
                        payload,
                        age,
                        num_samples,
                    } => {
                        if let Some(params) = self.ingest.decode(env, from, &payload) {
                            self.redirect(env, from, params, age, num_samples);
                        }
                    }
                    FlMsg::TokenPass(mut token) => {
                        // A pass that raced our leave: relay it onto the
                        // ring, lifted over the floor like any member
                        // would.
                        token.bid = token.bid.max(self.ring_bid_floor);
                        token.extend_to(self.ring.slots);
                        if let Some(m) = self.ring.members.first() {
                            env.send(m.node, FlMsg::TokenPass(token));
                        }
                    }
                    FlMsg::ClientHello => {
                        if let Some(target) = self.drain_target {
                            env.send(from, FlMsg::Rehome { server: target });
                        }
                    }
                    FlMsg::RingUpdate { ring, bid_floor } => {
                        if ring.epoch > self.ring.epoch {
                            self.ring = ring;
                            self.ring_bid_floor = self.ring_bid_floor.max(bid_floor);
                        }
                    }
                    _ => env.add_counter("membership.late", 1),
                }
                return;
            }
            Phase::Departed => {
                if let FlMsg::ScaleUp { sponsor } = msg {
                    // Recommission: a drained server may be scaled back
                    // in. Its old slot is retired forever; it re-joins
                    // the ring like a fresh node.
                    self.phase = Phase::Standby;
                    self.server_idx = usize::MAX;
                    self.drain_target = None;
                    self.on_scale_up(env, sponsor);
                } else {
                    env.add_counter("membership.late", 1);
                }
                return;
            }
        }
        match msg {
            FlMsg::ClientUpdate { params, age, .. } => {
                self.on_client_update(env, from, &params, age, true);
            }
            FlMsg::EncodedUpdate { payload, age, .. } => {
                let decoded =
                    self.ingest
                        .encoded_update(env, from, &payload, &self.params, self.age);
                if let Some(update) = decoded {
                    self.on_client_update(env, from, &update, age, true);
                    self.ingest.recycle_update(update);
                }
            }
            FlMsg::AgeGossip { age, server_idx } => {
                self.on_age_gossip(env, server_idx, age);
            }
            FlMsg::TokenPass(token) => self.on_token(env, token),
            FlMsg::ServerModel {
                params,
                age,
                bid,
                server_idx,
            } => self.on_server_model(env, server_idx, params, age, bid),
            FlMsg::JoinRequest { region } if self.cfg.membership.is_some() => {
                self.on_join_request(env, from, region);
            }
            FlMsg::RingUpdate { ring, bid_floor } if self.cfg.membership.is_some() => {
                self.on_ring_update(env, ring, bid_floor);
            }
            // A re-homed client's first contact: adopt it and hand it the
            // model.
            FlMsg::ClientHello if self.cfg.membership.is_some() => {
                self.adopt_client(env, from);
                self.ingest.reply(env, from, &self.params, self.age);
            }
            // Without the membership extension the client set is static:
            // a returning client (restart, availability window closing)
            // knocks to re-enter the training loop and is welcomed back,
            // an unknown sender is a counted drop.
            FlMsg::ClientHello => self.ingest.hello(env, from, &self.params, self.age),
            FlMsg::RedirectedUpdate {
                client,
                params,
                age,
                ..
            } if self.cfg.membership.is_some() => {
                self.adopt_client(env, client);
                self.on_client_update(env, client, &params, age, false);
            }
            FlMsg::ScaleDown if self.cfg.membership.is_some() => self.begin_leave(env),
            // Already live: a duplicate accept or a misdirected scale-up.
            FlMsg::JoinAccept { .. } | FlMsg::ScaleUp { .. } if self.cfg.membership.is_some() => {
                env.add_counter("membership.late", 1);
            }
            _ => env.add_counter("net.unexpected", 1),
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env<FlMsg>, tag: u64) {
        match tag >> TAG_KIND_SHIFT {
            KIND_TOKEN_WATCHDOG => self.on_token_watchdog(env),
            KIND_EXCHANGE_TIMEOUT => {
                self.on_exchange_timeout(env, tag & TAG_PAYLOAD_MASK);
            }
            KIND_CLIENT_WATCHDOG => self.on_client_watchdog(env),
            KIND_JOIN_RETRY => self.on_join_retry(env),
            KIND_LEAVE => self.begin_leave(env),
            KIND_DRAIN => {
                if self.phase == Phase::Draining {
                    self.phase = Phase::Departed;
                    // The drain window is over: no more in-flight encoded
                    // updates to resolve.
                    self.ingest.forget_sent_models();
                }
            }
            _ => debug_assert!(false, "unexpected timer tag {tag:#x}"),
        }
    }

    fn on_restart(&mut self, env: &mut dyn Env<FlMsg>) {
        // The node keeps its model and ages but every armed timer fired
        // into the void while it was down: re-arm what the phase needs.
        match self.phase {
            Phase::Standby => {
                if let Some(mcfg) = self.cfg.membership {
                    env.set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
                }
                return;
            }
            Phase::Draining => {
                if let Some(mcfg) = self.cfg.membership {
                    env.set_timer(mcfg.drain_timeout, tag(KIND_DRAIN, 0));
                }
                return;
            }
            Phase::Departed => return,
            Phase::Live => {}
        }
        // Re-arm the watchdogs and poke the clients (whatever was in
        // flight to or from them is lost). A pre-crash exchange can no
        // longer complete the normal way — the peers' models were
        // discarded with the inbox — so close it and let the token
        // watchdogs recover the ring.
        if self.ongoing_synchro {
            env.span_exit("server.exchange");
        }
        self.ongoing_synchro = false;
        // If we still hold the token, re-stamp it: peers already broadcast
        // under its old bid and would ignore a re-triggered exchange.
        if self.token.is_some() {
            let bid = self.highest_bid_seen.max(self.ring_bid_floor) + self.ring.len() as u64;
            self.highest_bid_seen = bid;
            if let Some(t) = &mut self.token {
                t.bid = bid;
            }
        }
        env.add_counter("server.restarts", 1);
        self.ingest.broadcast(env, &self.params, self.age);
        self.arm_watchdogs(env);
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
    use crate::agg::AggregationStrategy;
    use crate::client::FlClient;
    use crate::config::RecoveryConfig;
    use crate::test_support::MockEnv;
    use crate::training::MeanTargetTrainer;
    use spyker_simnet::{ByzantineAttack, FaultPlan, NetworkConfig, Region, SimTime, Simulation};

    /// Two servers, two clients each; client targets average to 1.5.
    fn build_two_server_sim(cfg: SpykerConfig) -> Simulation<FlMsg> {
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

    fn server(sim: &Simulation<FlMsg>, id: usize) -> &SpykerServer {
        sim.node(id)
            .as_any()
            .downcast_ref::<SpykerServer>()
            .unwrap_or_else(|| panic!("node {id} is not a SpykerServer"))
    }

    fn tight_cfg() -> SpykerConfig {
        // Small thresholds so synchronisation happens often in short tests.
        SpykerConfig::paper_defaults(4, 2).with_thresholds(3.0, 20.0)
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

    fn build_faulty_sim(cfg: SpykerConfig, plan: FaultPlan) -> Simulation<FlMsg> {
        // Same deployment as build_two_server_sim, but with faults.
        let mut sim = Simulation::new(NetworkConfig::aws(), 3).with_faults(plan);
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
                    i / 2,
                    Box::new(trainer),
                    1,
                    SimTime::from_millis(150),
                )),
                region,
            );
        }
        sim
    }

    fn recovery_cfg() -> SpykerConfig {
        tight_cfg().with_recovery(RecoveryConfig {
            token_timeout: SimTime::from_secs(2),
            exchange_timeout: SimTime::from_secs(1),
            client_timeout: SimTime::from_secs(1),
        })
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
    fn dropped_token_is_regenerated_and_syncs_resume() {
        // Kill the first token pass on the ring (0 -> 1). Without recovery
        // synchronisation stops forever; with recovery the watchdog on the
        // lowest-indexed server regenerates the token and syncs continue.
        let run = |cfg: SpykerConfig| {
            // Drop *every* TokenPass 0 -> 1 for the first 12 s by cutting
            // the window; client-server traffic shares no link with it
            // (servers 0/1, clients 2..6 — the 0 -> 1 link carries only
            // server-server traffic).
            let plan =
                FaultPlan::none().drop_link_window(0, 1, SimTime::ZERO, SimTime::from_secs(12));
            let mut sim = build_faulty_sim(cfg, plan);
            sim.run(SimTime::from_secs(40));
            (
                sim.metrics().counter("syncs.triggered"),
                sim.metrics().counter("token.regenerated"),
                server(&sim, 0).syncs_triggered() + server(&sim, 1).syncs_triggered(),
            )
        };
        let (syncs_without, regen_without, _) = run(tight_cfg());
        let (syncs_with, regen_with, per_server) = run(recovery_cfg());
        assert_eq!(regen_without, 0);
        assert!(regen_with > 0, "watchdog never regenerated the token");
        assert!(
            syncs_with > syncs_without,
            "recovery should out-sync the deadlocked ring: {syncs_with} vs {syncs_without}"
        );
        assert!(per_server > 0);
    }

    #[test]
    fn crashed_peer_degrades_the_exchange_instead_of_blocking() {
        // Server 1 dies at t=5 s and never comes back. The token holder
        // must stop waiting for its model and keep the ring (and its own
        // clients) alive.
        let plan = FaultPlan::none().crash(1, SimTime::from_secs(5), None);
        let mut sim = build_faulty_sim(recovery_cfg(), plan);
        sim.run(SimTime::from_secs(40));
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        let s0 = server(&sim, 0);
        assert!(
            sim.metrics().counter("sync.degraded") > 0,
            "holder never timed out on the dead peer"
        );
        // Server 0 keeps processing its clients all along.
        assert!(s0.processed_updates() > 100, "survivor stalled");
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
            s0.update_counts()[0]
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

    #[test]
    fn restarted_server_rejoins_the_ring() {
        // Server 1 crashes at 5 s and restarts at 10 s with its state.
        let plan = FaultPlan::none().crash(1, SimTime::from_secs(5), Some(SimTime::from_secs(10)));
        let mut sim = build_faulty_sim(recovery_cfg(), plan);
        sim.run(SimTime::from_secs(40));
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        assert_eq!(sim.metrics().counter("server.restarts"), 1);
        let s1 = server(&sim, 1);
        // It processes client updates again after the restart: well beyond
        // what ~5 s of pre-crash work can account for (~2 clients * 5 s /
        // 0.45 s round trip ≈ 22).
        assert!(
            s1.processed_updates() > 60,
            "server 1 never recovered: {}",
            s1.processed_updates()
        );
        // And synchronisation involves both servers again.
        assert!(s1.syncs_triggered() + s1.server_aggs() > 0);
    }

    #[test]
    fn spurious_token_forward_is_logged_not_fatal() {
        // Server 1 never holds the initial token; a stray trigger must be
        // counted and absorbed, not abort the run.
        let cfg = SpykerConfig::paper_defaults(4, 2);
        let mut s = SpykerServer::new(1, vec![0, 1], vec![4, 5], ParamVec::zeros(2), cfg);
        s.ongoing_synchro = true;
        let mut env = MockEnv::new(1, 6);
        s.forward_token(&mut env);
        assert_eq!(env.counter("token.forward_spurious"), 1);
        assert!(env.sent.is_empty(), "no token must leave the server");
        assert!(!s.ongoing_synchro);
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
    fn unusable_peer_model_skips_merge_but_not_token_bookkeeping() {
        // Server 0 holds the initial token and triggers an exchange on its
        // first client update (zero thresholds). The peer answers with a
        // model that cannot be merged — poisoned, or of another dimension:
        // the merge must be skipped but the token must still be forwarded
        // once every peer answered.
        for peer_model in [vec![f32::NAN, 0.0], vec![0.5, 0.5, 0.5], vec![]] {
            let cfg = SpykerConfig::paper_defaults(2, 2).with_thresholds(0.0, 0.0);
            let mut s = SpykerServer::new(0, vec![0, 1], vec![2], ParamVec::zeros(2), cfg);
            let mut env = MockEnv::new(0, 4);
            s.on_message(
                &mut env,
                2,
                FlMsg::ClientUpdate {
                    params: ParamVec::from_vec(vec![1.0, 1.0]),
                    age: 0.0,
                    num_samples: 10,
                },
            );
            assert!(s.ongoing_synchro, "exchange should have been triggered");
            let bid = s.token.as_ref().expect("still holds the token").bid;
            let params_before = s.params().clone();
            s.on_message(
                &mut env,
                1,
                FlMsg::ServerModel {
                    params: ParamVec::from_vec(peer_model),
                    age: 1.0,
                    bid,
                    server_idx: 1,
                },
            );
            // Merge skipped: model untouched, no server agg counted.
            assert_eq!(s.params(), &params_before);
            assert_eq!(s.server_aggs(), 0);
            assert_eq!(env.counter("agg.rejected.peer"), 1);
            // Bookkeeping intact: the exchange completed and the token moved on.
            assert!(!s.has_token());
            assert!(!s.ongoing_synchro);
            assert!(
                env.sent
                    .iter()
                    .any(|(to, m)| *to == 1 && matches!(m, FlMsg::TokenPass(_))),
                "token was never forwarded"
            );
        }
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
        let counts = srv.update_counts();
        assert!(
            counts[0] > 10 * counts[1],
            "fast client not fast: {counts:?}"
        );
        // Fast client's next lr must be decayed to the floor by now.
        let lr = srv
            .cfg
            .decay
            .decay(counts[0], srv.ingest.update_counts().mean());
        assert!(lr < 0.01, "expected decayed lr, got {lr}");
    }

    // ---- elastic membership -------------------------------------------

    use crate::client::FailoverConfig;
    use crate::membership::MembershipConfig;

    fn elastic_cfg() -> SpykerConfig {
        SpykerConfig::paper_defaults(4, 2)
            .with_thresholds(2.0, 10.0)
            .with_recovery(RecoveryConfig::default())
            .with_membership(MembershipConfig::default())
    }

    fn failover_client(server: NodeId, candidates: &[NodeId], t: f32) -> FlClient {
        FlClient::new(
            server,
            Box::new(MeanTargetTrainer::new(vec![t, t], 10)),
            1,
            SimTime::from_millis(150),
        )
        .with_failover(FailoverConfig {
            candidates: candidates.to_vec(),
            timeout: SimTime::from_secs(4),
        })
    }

    /// Two live servers + one standby that joins on a timer; nodes 3..7
    /// are clients. Returns the simulation (unrun).
    fn build_elastic_sim(cfg: SpykerConfig, join_after: Option<SimTime>) -> Simulation<FlMsg> {
        let mut sim = Simulation::new(NetworkConfig::aws(), 17);
        let server_nodes = vec![0usize, 1];
        sim.add_node(
            Box::new(SpykerServer::new(
                0,
                server_nodes.clone(),
                vec![3, 4],
                ParamVec::zeros(2),
                cfg.clone(),
            )),
            Region::Paris,
        );
        sim.add_node(
            Box::new(SpykerServer::new(
                1,
                server_nodes,
                vec![5, 6],
                ParamVec::zeros(2),
                cfg.clone(),
            )),
            Region::Sydney,
        );
        sim.add_node(
            Box::new(SpykerServer::standby(
                Region::California,
                ParamVec::zeros(2),
                cfg,
                Some(0),
                join_after,
            )),
            Region::California,
        );
        let all = [0usize, 1, 2];
        for i in 0..4 {
            let home = if i < 2 { 0 } else { 1 };
            let region = if i < 2 { Region::Paris } else { Region::Sydney };
            sim.add_node(
                Box::new(failover_client(home, &all, i as f32 * 0.5)),
                region,
            );
        }
        sim
    }

    #[test]
    fn timed_join_splices_standby_server_into_the_ring() {
        let mut sim = build_elastic_sim(elastic_cfg(), Some(SimTime::from_secs(2)));
        sim.run(SimTime::from_secs(30));
        assert_eq!(sim.metrics().counter("membership.joins"), 1);
        let joiner = server(&sim, 2);
        assert!(joiner.is_ring_member());
        assert_eq!(joiner.membership_phase(), "live");
        for id in 0..3 {
            assert_eq!(server(&sim, id).ring_epoch(), 1, "server {id} stale epoch");
        }
        assert_eq!(sim.metrics().gauge("membership.ring_size"), Some(3.0));
        // Synchronisation keeps running over the grown ring: the joiner
        // participates in exchanges (its age advances via peers or its
        // token turns come around).
        assert!(
            sim.metrics().counter("syncs.triggered") > 0,
            "token stopped circulating after the join"
        );
        // Exactly one token in flight: no regeneration was needed.
        for id in 0..3 {
            assert_eq!(server(&sim, id).tokens_regenerated(), 0);
        }
        assert!(sim.metrics().counter("updates.processed") > 20);
    }

    #[test]
    fn voluntary_leave_hands_off_token_and_rehomes_clients() {
        // Three live servers; server 2 (clients 5, 6) leaves at t=6 s.
        let cfg = elastic_cfg();
        let mut sim = Simulation::new(NetworkConfig::aws(), 23);
        let server_nodes = vec![0usize, 1, 2];
        let homes = [vec![3, 4], vec![5], vec![6]];
        let regions = [Region::Paris, Region::Sydney, Region::California];
        for idx in 0..3 {
            let s = SpykerServer::new(
                idx,
                server_nodes.clone(),
                homes[idx].clone(),
                ParamVec::zeros(2),
                cfg.clone(),
            );
            let s = if idx == 2 {
                s.with_leave_at(SimTime::from_secs(6))
            } else {
                s
            };
            sim.add_node(Box::new(s), regions[idx]);
        }
        let all = [0usize, 1, 2];
        for i in 0..4 {
            let home = [0, 0, 1, 2][i];
            sim.add_node(
                Box::new(failover_client(home, &all, i as f32 * 0.5)),
                regions[home],
            );
        }
        sim.run(SimTime::from_secs(30));
        assert_eq!(sim.metrics().counter("membership.leaves"), 1);
        let leaver = server(&sim, 2);
        assert!(!leaver.is_ring_member());
        assert_eq!(leaver.membership_phase(), "departed");
        assert_eq!(leaver.num_clients(), 0, "leaver kept client state");
        for id in 0..2 {
            assert_eq!(server(&sim, id).ring_epoch(), 1);
        }
        // Client 6 was re-homed to a survivor and adopted there.
        assert!(sim.metrics().counter("membership.client_rehomes") >= 1);
        assert!(sim.metrics().counter("membership.adoptions") >= 1);
        let orphan = sim.node(6).as_any().downcast_ref::<FlClient>().unwrap();
        assert!(orphan.server() < 2, "client 6 still points at the leaver");
        assert!(orphan.rehomed() >= 1);
        // The handoff preserved the token: no watchdog regeneration.
        for id in 0..2 {
            assert_eq!(
                server(&sim, id).tokens_regenerated(),
                0,
                "token was lost in the leave handoff"
            );
        }
        assert!(sim.metrics().counter("syncs.triggered") > 0);
        assert_eq!(sim.metrics().gauge("membership.ring_size"), Some(2.0));
    }

    #[test]
    fn crashed_server_is_evicted_and_clients_fail_over() {
        // Three live servers; server 2 crashes for good at t=5 s. The
        // exchange-miss budget evicts it; its client fails over on the
        // liveness timer.
        let cfg = elastic_cfg();
        let mut sim = Simulation::new(NetworkConfig::aws(), 29);
        let server_nodes = vec![0usize, 1, 2];
        let homes = [vec![3, 4], vec![5], vec![6]];
        let regions = [Region::Paris, Region::Sydney, Region::California];
        for idx in 0..3 {
            sim.add_node(
                Box::new(SpykerServer::new(
                    idx,
                    server_nodes.clone(),
                    homes[idx].clone(),
                    ParamVec::zeros(2),
                    cfg.clone(),
                )),
                regions[idx],
            );
        }
        let all = [0usize, 1, 2];
        for i in 0..4 {
            let home = [0, 0, 1, 2][i];
            sim.add_node(
                Box::new(failover_client(home, &all, i as f32 * 0.5)),
                regions[home],
            );
        }
        sim = sim.with_faults(FaultPlan::none().crash(2, SimTime::from_secs(5), None));
        sim.run(SimTime::from_secs(60));
        assert_eq!(
            sim.metrics().counter("membership.evictions"),
            1,
            "crashed server never evicted"
        );
        for id in 0..2 {
            let s = server(&sim, id);
            assert_eq!(s.ring_epoch(), 1, "server {id} missed the eviction epoch");
            assert!(s.is_ring_member());
        }
        // The orphaned client noticed the silence and re-homed itself.
        let orphan = sim.node(6).as_any().downcast_ref::<FlClient>().unwrap();
        assert!(orphan.server() < 2, "client 6 still points at the corpse");
        assert!(sim.metrics().counter("membership.client_failovers") >= 1);
        assert!(sim.metrics().counter("membership.adoptions") >= 1);
        // The ring of two keeps synchronising after the eviction.
        assert_eq!(sim.metrics().gauge("membership.ring_size"), Some(2.0));
        assert!(sim.metrics().counter("syncs.triggered") > 0);
        assert!(sim.metrics().counter("updates.processed") > 20);
    }
}
