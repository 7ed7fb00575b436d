//! The epoch-versioned server ring and the membership protocol's pure core.
//!
//! The paper fixes the server ring at startup; this module is the data side
//! of the elastic extension (DESIGN.md §14). A [`RingView`] is an immutable
//! snapshot of who is on the ring: a monotone `epoch` counter, the ordered
//! member list, and the total number of *slots* ever allocated. Slots are
//! append-only — a joining server takes a fresh slot and a departing
//! server's slot is retired, never reused — so every age vector
//! (`SpykerServer::ages`, `Token::ages`) stays indexed by slot across
//! membership changes and only ever *grows*.
//!
//! The mutation pair is [`RingView::splice`] / [`RingView::unsplice`]; both
//! bump the epoch. [`join_bid`] computes the dominating synchronisation id
//! under which a new ring shape takes over the token (see the proptests at
//! `crates/core/tests/membership_props.rs` for the inverse-pair and
//! dominance laws).
//! [`Membership`] runs a server's side of the protocol: the phase machine,
//! joins, leaves, exchange-miss eviction and off-ring routing.

use std::collections::HashMap;

use spyker_simnet::{Env, NodeId, Region, SimTime};

use crate::exchange::{lift, Exchange};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::server::{tag, Cx, KIND_DRAIN, KIND_JOIN_RETRY};

/// One server on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMember {
    /// The member's slot: its index into every age vector. Stable for the
    /// member's lifetime, never reused after it departs.
    pub slot: usize,
    /// The member's node id on the transport.
    pub node: NodeId,
    /// The member's region — used to re-home clients to the *nearest*
    /// surviving server when this one departs.
    pub region: Region,
}

/// An epoch-versioned snapshot of the server ring.
///
/// Token order is the order of `members`; the successor of a member is the
/// next entry (wrapping). `members` is kept sorted by slot, which makes the
/// splice/unsplice pair exact inverses: a join appends the highest slot and
/// a leave removes it from wherever it sits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingView {
    /// Monotone version counter; every splice/unsplice bumps it by one.
    pub epoch: u64,
    /// Live members in token order (sorted by slot).
    pub members: Vec<RingMember>,
    /// Total slots ever allocated (= the length every age vector must have
    /// under this view). `slots >= members.len()`; retired slots stay
    /// counted.
    pub slots: usize,
}

impl RingView {
    /// The epoch-0 ring of a fixed deployment: node ids `nodes`, slot `i`
    /// for the `i`-th node, regions per [`crate::deploy::server_region`]'s
    /// round-robin layout.
    pub fn fixed(nodes: &[NodeId]) -> Self {
        Self {
            epoch: 0,
            members: nodes
                .iter()
                .enumerate()
                .map(|(i, &node)| RingMember {
                    slot: i,
                    node,
                    region: Region::ALL[i % 4],
                })
                .collect(),
            slots: nodes.len(),
        }
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no member is live.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member occupying `slot`, if it is still live.
    pub fn member_of_slot(&self, slot: usize) -> Option<&RingMember> {
        self.members.iter().find(|m| m.slot == slot)
    }

    /// The member with node id `node`, if any.
    pub fn member_of_node(&self, node: NodeId) -> Option<&RingMember> {
        self.members.iter().find(|m| m.node == node)
    }

    /// `true` when `slot` is occupied by a live member — the liveness guard
    /// the aggregation paths must pass before reading a slot's age.
    pub fn is_live_slot(&self, slot: usize) -> bool {
        self.member_of_slot(slot).is_some()
    }

    /// Slots of all live members, in token order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|m| m.slot)
    }

    /// Node ids of every live member except the one on `slot`, in token
    /// order: the peers a server on `slot` exchanges models with.
    pub fn peers_of(&self, slot: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .filter(move |m| m.slot != slot)
            .map(|m| m.node)
    }

    /// The token successor of the member with node id `node`: the next live
    /// member in ring order (wrapping). `None` if `node` is not a member or
    /// is the only member.
    pub fn next_after(&self, node: NodeId) -> Option<&RingMember> {
        if self.members.len() < 2 {
            return None;
        }
        let pos = self.members.iter().position(|m| m.node == node)?;
        Some(&self.members[(pos + 1) % self.members.len()])
    }

    /// Splices `node` into the ring on a fresh slot: epoch + 1, one more
    /// slot, member list re-sorted by slot (so the joiner becomes the
    /// highest-slot member, last in token order).
    pub fn splice(&self, node: NodeId, region: Region) -> Self {
        debug_assert!(
            self.member_of_node(node).is_none(),
            "node {node} already on the ring"
        );
        let mut members = self.members.clone();
        members.push(RingMember {
            slot: self.slots,
            node,
            region,
        });
        members.sort_by_key(|m| m.slot);
        Self {
            epoch: self.epoch + 1,
            members,
            slots: self.slots + 1,
        }
    }

    /// Removes the member occupying `slot` from the ring: epoch + 1, the
    /// slot is retired (stays counted in `slots`, never reused).
    pub fn unsplice(&self, slot: usize) -> Self {
        Self {
            epoch: self.epoch + 1,
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| m.slot != slot)
                .collect(),
            slots: self.slots,
        }
    }

    /// The live member nearest to `region` by the paper's AWS one-way
    /// latency table (Tab. 4), excluding `excluding` — where a departing
    /// server re-homes its clients. Ties break toward the lower slot.
    pub fn nearest_to(&self, region: Region, excluding: NodeId) -> Option<&RingMember> {
        self.members
            .iter()
            .filter(|m| m.node != excluding)
            .min_by(|a, b| {
                latency_ms(region, a.region)
                    .total_cmp(&latency_ms(region, b.region))
                    .then(a.slot.cmp(&b.slot))
            })
    }
}

/// One-way latency between two regions (paper Tab. 4), in milliseconds.
fn latency_ms(src: Region, dst: Region) -> f64 {
    spyker_simnet::net::AWS_LATENCY_MS[src.index()][dst.index()]
}

/// The synchronisation id under which a new ring shape takes over: strictly
/// above every bid the proposer has seen *plus* a full lap of the old ring,
/// so it dominates any token copy still in flight (each hop adds one to the
/// bid, and a lost token is regenerated at `highest + ring_len` — this
/// clears both). Saturating, because a peer can claim any bid.
pub fn join_bid(highest_bid_seen: u64, old_ring_len: usize) -> u64 {
    highest_bid_seen.saturating_add(old_ring_len as u64 + 1)
}

/// Sends `msg` to every node of `to`, moving it into the last send.
pub(crate) fn fan_out(env: &mut dyn Env<FlMsg>, to: impl Iterator<Item = NodeId>, msg: FlMsg) {
    let mut to = to.peekable();
    while let Some(node) = to.next() {
        if to.peek().is_none() {
            return env.send(node, msg);
        }
        env.send(node, msg.clone());
    }
}

/// The message announcing `ring`, with `bid_floor` its lowest valid bid.
fn ring_update(ring: &RingView, bid_floor: u64) -> FlMsg {
    let ring = ring.clone();
    FlMsg::RingUpdate { ring, bid_floor }
}

/// Where a server stands in the membership lifecycle (DESIGN.md §14).
/// Servers of a fixed-ring deployment are born [`Phase::Live`] and never
/// move; the other phases exist only with `SpykerConfig::membership`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Phase {
    /// Built but not on the ring: waits for a join trigger (timer or
    /// `ScaleUp`), then bootstraps from a sponsor via `JoinRequest` /
    /// `JoinAccept`.
    Standby,
    /// A full ring member.
    #[default]
    Live,
    /// Voluntarily left the ring; still forwards in-flight client updates
    /// to the adopting server until the drain timer fires.
    Draining,
    /// Fully departed; drops everything (counted, not processed).
    Departed,
}

/// One server's side of the membership protocol. The default is a live
/// member of an empty ring.
#[derive(Debug, Default)]
pub struct Membership {
    pub(crate) phase: Phase,
    /// This server's ring *slot* (stable index into every age vector).
    /// `usize::MAX` while standby — a slot is only assigned on join.
    pub(crate) slot: usize,
    pub(crate) ring: RingView,
    /// Lowest synchronisation id valid under the current ring epoch: any
    /// token passing through this server is lifted to at least this bid,
    /// so copies predating a membership change are dominated everywhere.
    pub(crate) bid_floor: u64,
    /// Who a standby server asks to join (set at build time or by
    /// `ScaleUp`).
    pub(crate) sponsor: Option<NodeId>,
    /// Delay before a standby server's first `JoinRequest`; `None` means
    /// it waits for a `ScaleUp` from the autoscaler.
    pub(crate) join_after: Option<SimTime>,
    /// When set, this server voluntarily leaves the ring at that time.
    pub(crate) leave_at: Option<SimTime>,
    /// Consecutive exchange misses per live slot; reset by any sign of
    /// life, eviction at `MembershipConfig::evict_after_misses`.
    pub(crate) peer_misses: HashMap<usize, u32>,
    /// Where a draining server redirects in-flight client traffic.
    pub(crate) drain_target: Option<NodeId>,
}

impl Membership {
    /// A live member on `slot` of `ring`.
    pub(crate) fn member(slot: usize, ring: RingView) -> Self {
        Self {
            slot,
            ring,
            ..Self::default()
        }
    }

    /// Off the ring until a join trigger (see `SpykerServer::standby`).
    pub(crate) fn standby(sponsor: Option<NodeId>, join_after: Option<SimTime>) -> Self {
        Self {
            phase: Phase::Standby,
            slot: usize::MAX,
            sponsor,
            join_after,
            ..Self::default()
        }
    }

    /// Leaves the ring voluntarily at `at` (armed at start).
    pub(crate) fn schedule_leave(&mut self, at: SimTime) {
        self.leave_at = Some(at);
    }

    /// A sign of life from `slot`: its consecutive misses start over.
    pub(crate) fn heard_from(&mut self, slot: usize) {
        self.peer_misses.remove(&slot);
    }

    /// Drain timer: no more in-flight encoded updates to resolve.
    pub(crate) fn on_drain(&mut self, cx: &mut Cx) {
        if self.phase == Phase::Draining {
            self.phase = Phase::Departed;
            cx.l.ingest.forget_sent_models();
        }
    }

    /// Advertises our `age` to every peer (Alg. 2 l. 29).
    pub(crate) fn gossip_age(&self, env: &mut dyn Env<FlMsg>, age: f64) {
        let server_idx = self.slot;
        let gossip = FlMsg::AgeGossip { age, server_idx };
        fan_out(env, self.ring.peers_of(self.slot), gossip);
    }

    /// Publishes the ring's epoch and size.
    pub(crate) fn gauge_ring(&self, env: &mut dyn Env<FlMsg>) {
        env.gauge_set("membership.epoch", self.ring.epoch as f64);
        env.gauge_set("membership.ring_size", self.ring.len() as f64);
    }

    /// Installs a newer ring epoch, moves the exchange onto it and checks
    /// whether the new shape wants a synchronisation.
    fn adopt_ring(&mut self, cx: &mut Cx, x: &mut Exchange, ring: RingView, floor: u64) {
        if ring.epoch <= self.ring.epoch {
            return; // stale or duplicate update
        }
        self.ring = ring;
        self.bid_floor = self.bid_floor.max(floor);
        x.restamp(cx.env, self.bid_floor, self.ring.slots);
        self.gauge_ring(cx.env);
        x.check(cx, self);
    }

    /// One more consecutive exchange miss for `slot`; evict at the
    /// configured budget.
    pub(crate) fn note_miss(&mut self, cx: &mut Cx, x: &mut Exchange, slot: usize) {
        let Some(mcfg) = cx.l.cfg.membership else {
            return;
        };
        let misses = self.peer_misses.entry(slot).or_insert(0);
        *misses += 1;
        if *misses >= mcfg.evict_after_misses {
            self.peer_misses.remove(&slot);
            self.evict(cx, x, slot);
        }
    }

    /// Crash-departs `slot`: unsplice it, adopt the shrunk ring, and tell
    /// everyone — including the evicted node, which (if merely partitioned,
    /// not dead) stands down and re-joins through a survivor.
    fn evict(&mut self, cx: &mut Cx, x: &mut Exchange, slot: usize) {
        let Some(member) = self.ring.member_of_slot(slot) else {
            return;
        };
        let evicted = member.node;
        let floor = x.join_floor(self);
        let ring = self.ring.unsplice(slot);
        cx.env.add_counter("membership.evictions", 1);
        self.adopt_ring(cx, x, ring, floor);
        let to = self.ring.peers_of(self.slot).chain([evicted]);
        fan_out(cx.env, to, ring_update(&self.ring, self.bid_floor));
    }

    /// Bootstraps `joiner` onto `ring` from our model, ages and bid floor.
    fn accept(&self, cx: &mut Cx, x: &Exchange, joiner: NodeId, ring: RingView, floor: u64) {
        let accept = FlMsg::JoinAccept {
            ages: x.ages_for(ring.slots),
            ring,
            params: cx.l.params.clone(),
            age: cx.l.age,
            bid_floor: self.bid_floor.max(floor),
        };
        cx.env.send(joiner, accept);
    }

    /// A live member sponsors a join: splice the requester onto a fresh
    /// slot, fan the new epoch out to the members, and bootstrap the joiner
    /// from our live state. Idempotent — a retried request re-sends the
    /// current view.
    fn on_join_request(&mut self, cx: &mut Cx, x: &mut Exchange, from: NodeId, region: usize) {
        if self.ring.member_of_node(from).is_some() {
            self.accept(cx, x, from, self.ring.clone(), self.bid_floor);
            return;
        }
        let region = *Region::ALL.get(region).unwrap_or(&Region::ALL[0]);
        cx.env.span_enter("membership.join");
        let floor = x.join_floor(self);
        let ring = self.ring.splice(from, region);
        cx.env.add_counter("membership.joins", 1);
        let to = ring
            .members
            .iter()
            .filter(|m| m.node != from && m.slot != self.slot);
        fan_out(cx.env, to.map(|m| m.node), ring_update(&ring, floor));
        // Bootstrap *before* adopting: adoption may immediately trigger an
        // exchange over the new epoch, and the joiner should be live by
        // the time it sees one.
        self.accept(cx, x, from, ring.clone(), floor);
        self.adopt_ring(cx, x, ring, floor);
        cx.env.span_exit("membership.join");
    }

    /// Evicted while alive: shed clients toward the nearest survivor, drop
    /// any (by-construction stale) token, and go standby to re-join.
    fn stand_down(&mut self, cx: &mut Cx, x: &mut Exchange, ring: RingView, floor: u64) {
        let Some(mcfg) = cx.l.cfg.membership else {
            return;
        };
        cx.env.add_counter("membership.stand_downs", 1);
        x.stand_down(cx.env, floor);
        cx.l.shed_clients(cx.env, &ring, self.slot);
        cx.l.ingest.forget_sent_models();
        self.phase = Phase::Standby;
        self.sponsor = ring.members.first().map(|m| m.node);
        self.slot = usize::MAX;
        self.ring = ring;
        self.bid_floor = self.bid_floor.max(floor);
        cx.env
            .set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
    }

    /// Voluntary leave: hand the token to our ring successor re-stamped
    /// over the new epoch's floor, re-home every client to the nearest
    /// survivor, broadcast the shrunk ring, and drain.
    pub(crate) fn begin_leave(&mut self, cx: &mut Cx, x: &mut Exchange) {
        let Some(mcfg) = cx.l.cfg.membership else {
            return;
        };
        if self.phase != Phase::Live || self.ring.len() < 2 {
            return; // not a member, or the last server must stay
        }
        cx.env.span_enter("membership.leave");
        cx.env.add_counter("membership.leaves", 1);
        let floor = x.join_floor(self);
        let ring = self.ring.unsplice(self.slot);
        x.restamp(cx.env, floor, 0);
        if x.token.is_some() {
            x.forward_token(cx.env, self);
        }
        let target = cx.l.shed_clients(cx.env, &ring, self.slot);
        let target = target.expect("a ring of >= 2 leaves a survivor");
        let members = ring.members.iter().map(|m| m.node);
        fan_out(cx.env, members, ring_update(&ring, floor));
        self.phase = Phase::Draining;
        self.drain_target = Some(target);
        self.ring = ring;
        self.bid_floor = self.bid_floor.max(floor);
        cx.env.gauge_set("membership.epoch", self.ring.epoch as f64);
        cx.env.set_timer(mcfg.drain_timeout, tag(KIND_DRAIN, 0));
        cx.env.span_exit("membership.leave");
    }

    /// Asks `sponsor` to splice us in, and arms the retry.
    fn ask_to_join(&self, cx: &mut Cx, sponsor: NodeId) {
        let Some(mcfg) = cx.l.cfg.membership else {
            return;
        };
        let region = cx.l.region.index();
        cx.env.send(sponsor, FlMsg::JoinRequest { region });
        cx.env
            .set_timer(mcfg.client_failover_timeout, tag(KIND_JOIN_RETRY, 0));
    }

    /// Join-retry tick: still standby means the request or the accept was
    /// lost — ask again.
    pub(crate) fn on_join_retry(&self, cx: &mut Cx) {
        if self.phase != Phase::Standby {
            return;
        }
        if let Some(sponsor) = self.sponsor {
            self.ask_to_join(cx, sponsor);
        }
    }

    /// Draining: hands `client`'s in-flight update to the adopting server.
    fn redirect(
        &self,
        cx: &mut Cx,
        client: NodeId,
        params: ParamVec,
        age: f64,
        num_samples: usize,
    ) {
        if let Some(target) = self.drain_target {
            cx.env.add_counter("membership.redirected", 1);
            let msg = FlMsg::RedirectedUpdate {
                client,
                params,
                age,
                num_samples,
            };
            cx.env.send(target, msg);
        }
    }

    /// Handles the membership messages, in every phase (DESIGN.md §14 has
    /// the routing table). A live server's other messages are handed back;
    /// anything else not listed is late: counted and dropped.
    pub(crate) fn route(
        &mut self,
        cx: &mut Cx,
        x: &mut Exchange,
        from: NodeId,
        msg: FlMsg,
    ) -> Option<FlMsg> {
        let elastic = cx.l.cfg.membership.is_some();
        match (self.phase, msg) {
            (Phase::Live, FlMsg::JoinRequest { region }) if elastic => {
                self.on_join_request(cx, x, from, region);
            }
            // A ring update from a sponsor, a leaver, or an evictor. A live
            // server finding itself *excluded* from the newer epoch was
            // evicted (e.g. a partition outlived the miss budget): it stands
            // down and re-joins.
            (Phase::Live, FlMsg::RingUpdate { ring, bid_floor }) if elastic => {
                if ring.epoch <= self.ring.epoch {
                    cx.env.add_counter("membership.late", 1);
                } else if ring.member_of_node(cx.env.me()).is_none() {
                    self.stand_down(cx, x, ring, bid_floor);
                } else {
                    self.adopt_ring(cx, x, ring, bid_floor);
                }
            }
            (Phase::Live, FlMsg::ScaleDown) if elastic => self.begin_leave(cx, x),
            // Already live: a duplicate accept or a misdirected scale-up.
            (Phase::Live, FlMsg::JoinAccept { .. } | FlMsg::ScaleUp { .. }) if elastic => {
                cx.env.add_counter("membership.late", 1);
            }
            (Phase::Live, msg) => return Some(msg),
            (
                Phase::Standby,
                FlMsg::JoinAccept {
                    ring,
                    params,
                    age,
                    ages,
                    bid_floor,
                },
            ) => {
                // The joiner goes live: install the sponsor's model, ages
                // and ring, take the assigned slot, and announce our age so
                // exchanges include us.
                let Some(member) = ring.member_of_node(cx.env.me()) else {
                    cx.env.add_counter("net.unexpected", 1);
                    return None;
                };
                self.slot = member.slot;
                self.phase = Phase::Live;
                cx.l.params = params;
                cx.l.age = age;
                self.ring = ring;
                self.bid_floor = self.bid_floor.max(bid_floor);
                x.install(ages, self, age, bid_floor);
                self.gauge_ring(cx.env);
                cx.env.gauge_set(&format!("scale.load.s{}", self.slot), 0.0);
                // Chains from before a leave or a stand-down may still run.
                cx.l.arm_watchdogs(cx.env, self);
                self.gossip_age(cx.env, age);
            }
            // Picked by the autoscaler. A departed server is recommissioned
            // this way: its old slot is retired forever, and it re-joins
            // the ring like a fresh node.
            (Phase::Standby | Phase::Departed, FlMsg::ScaleUp { sponsor }) => {
                self.phase = Phase::Standby;
                self.slot = usize::MAX;
                self.drain_target = None;
                self.sponsor = Some(sponsor);
                self.ask_to_join(cx, sponsor);
            }
            // Off the ring, keep its view fresh; a standby server also
            // learns whom to ask.
            (Phase::Standby | Phase::Draining, FlMsg::RingUpdate { ring, bid_floor }) => {
                if ring.epoch > self.ring.epoch {
                    if self.phase == Phase::Standby {
                        self.sponsor = ring.members.first().map(|m| m.node);
                    }
                    self.ring = ring;
                    self.bid_floor = self.bid_floor.max(bid_floor);
                }
            }
            // In-flight update that raced our leave: redirect it to the
            // adopting server.
            (
                Phase::Draining,
                FlMsg::ClientUpdate {
                    params,
                    age,
                    num_samples,
                },
            ) => self.redirect(cx, from, params, age, num_samples),
            // Encoded one: we are the only server holding this client's
            // reference history, so decode *here* and redirect the dense
            // result.
            (
                Phase::Draining,
                FlMsg::EncodedUpdate {
                    payload,
                    age,
                    num_samples,
                },
            ) => {
                if let Some((params, _)) = cx.l.ingest.decode(cx.env, from, &payload, None) {
                    self.redirect(cx, from, params, age, num_samples);
                }
            }
            // A pass that raced our leave: relay it onto the ring, lifted
            // over the floor like any member would.
            (Phase::Draining, FlMsg::TokenPass(mut token)) => {
                lift(&mut token, self.bid_floor, self.ring.slots);
                if let Some(m) = self.ring.members.first() {
                    cx.env.send(m.node, FlMsg::TokenPass(token));
                }
            }
            (Phase::Draining, FlMsg::ClientHello) => {
                if let Some(target) = self.drain_target {
                    cx.env.send(from, FlMsg::Rehome { server: target });
                }
            }
            _ => cx.env.add_counter("membership.late", 1),
        }
        None
    }
}

/// Tunables of the elastic-membership extension. Carried as
/// `SpykerConfig::membership: Option<MembershipConfig>`; `None` — the
/// default — keeps the ring fixed and the protocol byte-identical to the
/// pre-membership implementation (no extra timers, no extra messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Consecutive exchanges a live member may fail to answer before the
    /// detecting token holder evicts it from the ring (crash-depart). The
    /// exchange timeout must be armed (recovery enabled) for misses to be
    /// observed.
    pub evict_after_misses: u32,
    /// How long a voluntarily leaving server keeps redirecting in-flight
    /// client updates to the adopting server before going dark.
    pub drain_timeout: SimTime,
    /// Period of the client-side liveness check used for failover: a client
    /// that has heard nothing from its server for a full period re-homes
    /// itself to the next candidate server.
    pub client_failover_timeout: SimTime,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            evict_after_misses: 3,
            drain_timeout: SimTime::from_secs(2),
            client_failover_timeout: SimTime::from_secs(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FailoverConfig, FlClient};
    use crate::config::{RecoveryConfig, SpykerConfig};
    use crate::server::tests::{drive, member, num_clients, server};
    use crate::server::{SpykerServer, KIND_LEAVE, KIND_TOKEN_WATCHDOG};
    use crate::test_support::MockEnv;
    use crate::token::Token;
    use crate::training::MeanTargetTrainer;
    use spyker_simnet::{FaultPlan, NetworkConfig, Node, Simulation};

    fn elastic_cfg() -> SpykerConfig {
        SpykerConfig::paper_defaults(4, 2)
            .with_thresholds(2.0, 10.0)
            .with_recovery(RecoveryConfig::default())
            .with_membership(MembershipConfig::default())
    }

    /// [`elastic_cfg`] with thresholds no run reaches: no exchange ever
    /// triggers, so handler tests see only membership traffic.
    fn quiet_cfg() -> SpykerConfig {
        elastic_cfg().with_thresholds(1e12, 1e12)
    }

    /// Node ids of every message of kind `is` sent so far, in order.
    fn sent_to(env: &MockEnv, is: impl Fn(&FlMsg) -> bool) -> Vec<NodeId> {
        env.sent
            .iter()
            .filter(|(_, m)| is(m))
            .map(|(to, _)| *to)
            .collect()
    }

    fn is_ring_update(msg: &FlMsg) -> bool {
        matches!(msg, FlMsg::RingUpdate { .. })
    }

    #[test]
    fn a_sponsor_splices_a_joiner_and_bootstraps_it() {
        let mut s = member(0, 2, quiet_cfg());
        let mut env = MockEnv::new(0, 8);
        s.on_message(&mut env, 5, FlMsg::JoinRequest { region: 2 });
        assert_eq!(env.counter("membership.joins"), 1);
        let join = ("membership.join", true);
        assert_eq!(env.spans, [join, ("membership.join", false)]);
        // The new epoch goes to the old members but us; the joiner gets a
        // bootstrap instead.
        assert_eq!(sent_to(&env, is_ring_update), [1]);
        let floor = join_bid(1, 2);
        match &env.sent[1] {
            (
                5,
                FlMsg::JoinAccept {
                    ring,
                    ages,
                    bid_floor,
                    ..
                },
            ) => {
                assert_eq!(ring.member_of_node(5).map(|m| m.slot), Some(2));
                assert_eq!((ages.len(), *bid_floor), (3, floor));
            }
            other => panic!("expected a JoinAccept to 5, got {other:?}"),
        }
        assert_eq!(s.ring_epoch(), 1);
        assert_eq!(env.gauge("membership.ring_size"), Some(3.0));
        // The held token moved over the new epoch's floor.
        assert_eq!(s.token_bid(), Some(floor));
        // A retried request re-sends the current view, and nothing else.
        s.on_message(&mut env, 5, FlMsg::JoinRequest { region: 2 });
        assert_eq!(env.counter("membership.joins"), 1);
        assert!(matches!(
            env.sent.last(),
            Some((5, FlMsg::JoinAccept { .. }))
        ));
        assert_eq!(sent_to(&env, is_ring_update), [1]);
    }

    #[test]
    fn an_accepted_joiner_goes_live_and_announces_its_age() {
        let standby = || {
            SpykerServer::standby(
                Region::Paris,
                ParamVec::zeros(2),
                quiet_cfg(),
                Some(0),
                None,
            )
        };
        let ring = RingView::fixed(&[0, 1]).splice(5, Region::Paris);
        let accept = |ring: RingView| FlMsg::JoinAccept {
            ring,
            params: ParamVec::from_vec(vec![1.0, 1.0]),
            age: 3.0,
            ages: vec![3.0, 2.0],
            bid_floor: 9,
        };
        // An accept that does not place us is not for us.
        let mut s = standby();
        let mut env = MockEnv::new(5, 8);
        s.on_message(&mut env, 0, accept(RingView::fixed(&[0, 1])));
        assert_eq!(env.counter("net.unexpected"), 1);
        assert_eq!(s.membership_phase(), "standby");
        s.on_message(&mut env, 0, accept(ring));
        assert_eq!(s.membership_phase(), "live");
        assert_eq!((s.server_idx(), s.age(), s.highest_bid_seen()), (2, 3.0, 9));
        assert_eq!(s.params().as_slice(), [1.0, 1.0]);
        assert_eq!(s.known_ages(), [3.0, 2.0, 3.0]);
        assert_eq!(env.gauge("membership.epoch"), Some(1.0));
        assert_eq!(env.gauge("scale.load.s2"), Some(0.0));
        // No clients yet, so only the token watchdog, third on the ring.
        let watchdog = tag(KIND_TOKEN_WATCHDOG, 0);
        let delay = RecoveryConfig::default().token_timeout * 3;
        assert_eq!(env.timers, [(delay, watchdog)]);
        let gossip =
            |m: &FlMsg| matches!(m, FlMsg::AgeGossip { age, server_idx: 2 } if *age == 3.0);
        assert_eq!(sent_to(&env, gossip), [0, 1]);
    }

    #[test]
    fn an_excluded_member_stands_down_and_rehomes_its_clients() {
        let mut s = member(1, 3, quiet_cfg());
        let mut env = MockEnv::new(1, 8);
        let shrunk = RingView::fixed(&[0, 1, 2]).unsplice(1);
        // A view no newer than ours is late.
        let stale = RingView::fixed(&[0, 1, 2]);
        s.on_message(
            &mut env,
            0,
            FlMsg::RingUpdate {
                ring: stale,
                bid_floor: 1,
            },
        );
        assert_eq!(env.counter("membership.late"), 1);
        s.on_message(
            &mut env,
            0,
            FlMsg::RingUpdate {
                ring: shrunk,
                bid_floor: 20,
            },
        );
        assert_eq!(env.counter("membership.stand_downs"), 1);
        assert_eq!(s.membership_phase(), "standby");
        assert_eq!((s.server_idx(), s.highest_bid_seen()), (usize::MAX, 20));
        assert_eq!(num_clients(&s), 0);
        // Client 4 (ours) is sent to the survivor nearest to Paris.
        let rehome = |m: &FlMsg| matches!(m, FlMsg::Rehome { server: 0 });
        assert_eq!(sent_to(&env, rehome), [4]);
        let retry = MembershipConfig::default().client_failover_timeout;
        assert_eq!(env.timers, [(retry, tag(KIND_JOIN_RETRY, 0))]);
        // The retry asks the new ring's first member.
        s.on_timer(&mut env, tag(KIND_JOIN_RETRY, 0));
        assert!(matches!(
            env.sent.last(),
            Some((0, FlMsg::JoinRequest { .. }))
        ));
    }

    #[test]
    fn a_leaver_hands_off_rehomes_announces_and_drains() {
        let mut s = member(0, 3, quiet_cfg());
        let mut env = MockEnv::new(0, 8);
        s.on_message(&mut env, 9, FlMsg::ScaleDown);
        let leave = ("membership.leave", true);
        assert_eq!(env.spans, [leave, ("membership.leave", false)]);
        let pass = |m: &FlMsg| matches!(m, FlMsg::TokenPass(t) if t.bid == join_bid(1, 3));
        assert_eq!(sent_to(&env, pass), [1]);
        assert_eq!(sent_to(&env, |m| matches!(m, FlMsg::Rehome { .. })), [3]);
        assert_eq!(sent_to(&env, is_ring_update), [1, 2]);
        assert_eq!(s.membership_phase(), "draining");
        let drain = MembershipConfig::default().drain_timeout;
        assert_eq!(env.timers, [(drain, tag(KIND_DRAIN, 0))]);
        // Draining: in-flight traffic is handed to the adopting server.
        let target = match env
            .sent
            .iter()
            .find(|(_, m)| matches!(m, FlMsg::Rehome { .. }))
        {
            Some((_, FlMsg::Rehome { server })) => *server,
            _ => unreachable!(),
        };
        env.sent.clear();
        let update = FlMsg::ClientUpdate {
            params: ParamVec::zeros(2),
            age: 0.0,
            num_samples: 1,
        };
        s.on_message(&mut env, 3, update);
        s.on_message(&mut env, 3, FlMsg::ClientHello);
        let token = Token {
            bid: 2,
            ages: vec![0.0; 3],
        };
        s.on_message(&mut env, 2, FlMsg::TokenPass(token));
        s.on_message(
            &mut env,
            1,
            FlMsg::AgeGossip {
                age: 1.0,
                server_idx: 1,
            },
        );
        assert!(
            matches!(env.sent[0], (t, FlMsg::RedirectedUpdate { client: 3, .. }) if t == target)
        );
        assert!(matches!(env.sent[1], (3, FlMsg::Rehome { server }) if server == target));
        // The raced pass is relayed to the ring, lifted over its floor.
        let relayed = |m: &FlMsg| matches!(m, FlMsg::TokenPass(t) if t.bid == join_bid(1, 3));
        assert_eq!(sent_to(&env, relayed), [1]);
        assert_eq!(env.counter("membership.redirected"), 1);
        assert_eq!(env.counter("membership.late"), 1);
        s.on_timer(&mut env, tag(KIND_DRAIN, 0));
        assert_eq!(s.membership_phase(), "departed");
        // Recommissioned: back to standby, asking to join afresh.
        s.on_message(&mut env, 9, FlMsg::ScaleUp { sponsor: 1 });
        assert_eq!(
            (s.membership_phase(), s.server_idx()),
            ("standby", usize::MAX)
        );
        assert!(matches!(
            env.sent.last(),
            Some((1, FlMsg::JoinRequest { region: 0 }))
        ));
    }

    #[test]
    fn a_standby_server_keeps_its_view_fresh_and_retries_its_join() {
        let after = SimTime::from_secs(2);
        let mut s = SpykerServer::standby(
            Region::Sydney,
            ParamVec::zeros(2),
            quiet_cfg(),
            Some(0),
            Some(after),
        );
        let mut env = MockEnv::new(7, 8);
        s.on_start(&mut env);
        assert_eq!(env.timers, [(after, tag(KIND_JOIN_RETRY, 0))]);
        let newer = RingView::fixed(&[3, 4]).unsplice(0);
        s.on_message(
            &mut env,
            4,
            FlMsg::RingUpdate {
                ring: newer,
                bid_floor: 5,
            },
        );
        s.on_message(
            &mut env,
            4,
            FlMsg::AgeGossip {
                age: 1.0,
                server_idx: 0,
            },
        );
        assert_eq!(env.counter("membership.late"), 1);
        s.on_timer(&mut env, tag(KIND_JOIN_RETRY, 0));
        let region = Region::Sydney.index();
        assert!(
            matches!(env.sent.last(), Some((4, FlMsg::JoinRequest { region: r })) if *r == region)
        );
        // A leave timer is a no-op for a server not on the ring.
        s.on_timer(&mut env, tag(KIND_LEAVE, 0));
        assert_eq!(s.membership_phase(), "standby");
    }

    #[test]
    fn misses_evict_only_at_the_budget_and_signs_of_life_reset_them() {
        let mut s = member(0, 3, quiet_cfg());
        let mut env = MockEnv::new(0, 8);
        drive(&mut s, &mut env, |x, m, cx| {
            m.note_miss(cx, x, 2);
            m.note_miss(cx, x, 2);
        });
        // A gossip from slot 2 is a sign of life: the count restarts.
        s.on_message(
            &mut env,
            2,
            FlMsg::AgeGossip {
                age: 1.0,
                server_idx: 2,
            },
        );
        drive(&mut s, &mut env, |x, m, cx| {
            m.note_miss(cx, x, 2);
            m.note_miss(cx, x, 2);
        });
        assert_eq!(env.counter("membership.evictions"), 0);
        drive(&mut s, &mut env, |x, m, cx| m.note_miss(cx, x, 2));
        assert_eq!(env.counter("membership.evictions"), 1);
        assert_eq!(s.ring_epoch(), 1);
        // The evicted node hears of it too.
        assert_eq!(sent_to(&env, is_ring_update), [1, 2]);
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
        let regions = [Region::Paris, Region::Sydney];
        for (idx, clients) in [vec![3, 4], vec![5, 6]].into_iter().enumerate() {
            let s = SpykerServer::new(idx, vec![0, 1], clients, ParamVec::zeros(2), cfg.clone());
            sim.add_node(Box::new(s), regions[idx]);
        }
        let joiner = SpykerServer::standby(
            Region::California,
            ParamVec::zeros(2),
            cfg,
            Some(0),
            join_after,
        );
        sim.add_node(Box::new(joiner), Region::California);
        for i in 0..4 {
            let client = failover_client(i / 2, &[0, 1, 2], i as f32 * 0.5);
            sim.add_node(Box::new(client), regions[i / 2]);
        }
        sim
    }

    /// Three live servers with failover clients: 3 and 4 on server 0, 5 on
    /// server 1, 6 on server 2, which leaves at `leave_at` if given.
    fn three_server_sim(seed: u64, leave_at: Option<SimTime>) -> Simulation<FlMsg> {
        let mut sim = Simulation::new(NetworkConfig::aws(), seed);
        let homes = [vec![3, 4], vec![5], vec![6]];
        let regions = [Region::Paris, Region::Sydney, Region::California];
        for (idx, clients) in homes.into_iter().enumerate() {
            let s = SpykerServer::new(
                idx,
                vec![0, 1, 2],
                clients,
                ParamVec::zeros(2),
                elastic_cfg(),
            );
            let s = match leave_at {
                Some(at) if idx == 2 => s.with_leave_at(at),
                _ => s,
            };
            sim.add_node(Box::new(s), regions[idx]);
        }
        for (i, home) in [0, 0, 1, 2].into_iter().enumerate() {
            let client = failover_client(home, &[0, 1, 2], i as f32 * 0.5);
            sim.add_node(Box::new(client), regions[home]);
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
        // Three live servers; server 2 (client 6) leaves at t=6 s.
        let mut sim = three_server_sim(23, Some(SimTime::from_secs(6)));
        sim.run(SimTime::from_secs(30));
        assert_eq!(sim.metrics().counter("membership.leaves"), 1);
        let leaver = server(&sim, 2);
        assert!(!leaver.is_ring_member());
        assert_eq!(leaver.membership_phase(), "departed");
        assert_eq!(num_clients(leaver), 0, "leaver kept client state");
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
        let plan = FaultPlan::none().crash(2, SimTime::from_secs(5), None);
        let mut sim = three_server_sim(29, None).with_faults(plan);
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

    fn three() -> RingView {
        RingView::fixed(&[0, 1, 2])
    }

    #[test]
    fn fixed_ring_is_epoch_zero_identity_layout() {
        let r = three();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.slots, 3);
        assert_eq!(r.len(), 3);
        for (i, m) in r.members.iter().enumerate() {
            assert_eq!(m.slot, i);
            assert_eq!(m.node, i);
            assert_eq!(m.region, Region::ALL[i % 4]);
        }
    }

    #[test]
    fn splice_appends_fresh_slot_and_bumps_epoch() {
        let r = three().splice(7, Region::Paris);
        assert_eq!(r.epoch, 1);
        assert_eq!(r.slots, 4);
        assert_eq!(r.member_of_slot(3).unwrap().node, 7);
        // Token order: the joiner is last, so 2's successor is the joiner
        // and the joiner wraps to 0.
        assert_eq!(r.next_after(2).unwrap().node, 7);
        assert_eq!(r.next_after(7).unwrap().node, 0);
    }

    #[test]
    fn unsplice_retires_the_slot_without_reuse() {
        let r = three().unsplice(1);
        assert_eq!(r.epoch, 1);
        assert_eq!(r.slots, 3, "retired slot stays counted");
        assert!(!r.is_live_slot(1));
        assert_eq!(r.next_after(0).unwrap().node, 2);
        // A later join must not resurrect slot 1.
        let r = r.splice(9, Region::Sydney);
        assert_eq!(r.member_of_node(9).unwrap().slot, 3);
    }

    #[test]
    fn splice_then_unsplice_is_identity_up_to_epoch() {
        let r = three();
        let back = r.splice(7, Region::Paris).unsplice(3);
        assert_eq!(back.members, r.members);
        assert_eq!(back.epoch, r.epoch + 2);
        // slots is append-only, so it keeps the allocation.
        assert_eq!(back.slots, r.slots + 1);
    }

    #[test]
    fn next_after_walks_the_full_ring() {
        let r = three();
        let mut at = 0;
        for _ in 0..3 {
            at = r.next_after(at).unwrap().node;
        }
        assert_eq!(at, 0, "three hops must lap a three-ring");
        assert!(RingView::fixed(&[5]).next_after(5).is_none());
        assert!(r.next_after(99).is_none());
    }

    #[test]
    fn nearest_to_prefers_colocated_and_excludes_self() {
        // Slots 0..3 sit in Hongkong/Paris/Sydney per the fixed layout.
        let r = three();
        let m = r.nearest_to(Region::Paris, 1).unwrap();
        assert_ne!(m.node, 1, "excluded node must not be chosen");
        // Paris→Hongkong (194.9) vs Paris→Sydney (259.03): Hongkong wins.
        assert_eq!(m.node, 0);
        let m = r.nearest_to(Region::Paris, 99).unwrap();
        assert_eq!(m.node, 1, "co-located member wins when not excluded");
    }

    #[test]
    fn join_bid_dominates_a_full_lap() {
        // A token at bid b gains +1 per hop; after a full lap of a ring of
        // n it is at b + n. join_bid must exceed that.
        assert!(join_bid(10, 3) > 10 + 3);
        assert_eq!(join_bid(0, 0), 1);
    }
}
