//! Alg. 2: the token-triggered asynchronous exchange of server models,
//! plus its recovery watchdogs. The ring comes from [`Membership`]; the
//! model, its age and the peer gate from the server, lent to each handler.

use std::collections::BTreeSet;

use spyker_simnet::Env;

use crate::membership::{fan_out, join_bid, Membership, Phase};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::server::{tag, Cx, Local, KIND_EXCHANGE_TIMEOUT, TAG_PAYLOAD_MASK};
use crate::staleness::{blended_age, live_age_spread, server_agg_weight};
use crate::token::Token;

/// How far below `highest_bid_seen` a bid is still echoed (Alg. 2's
/// `didBroadcast`): the exchange an older one answers is long overtaken.
const ECHO_WINDOW: u64 = 64;

/// One server's side of Alg. 2. The default holds no token, knows no
/// ages and has seen no bid.
#[derive(Debug, Default)]
pub struct Exchange {
    pub(crate) token: Option<Token>,
    /// The freshest age seen for each slot; our own entry tracks our age.
    pub(crate) ages: Vec<f64>,
    /// Our age when we last sent our model (`checkSynchronization`'s base).
    age_prev: f64,
    /// The bids we sent our model under, within [`ECHO_WINDOW`].
    echoed: BTreeSet<u64>,
    held: Ledger,
    /// `true` while an exchange this server triggered is open.
    pub(crate) ongoing: bool,
    last_gossip_at: u64,
    /// Highest synchronisation id this server has observed (its own token,
    /// received tokens, and peer model broadcasts). Tokens arriving with a
    /// lower bid are stale copies and are dropped when recovery is on.
    pub(crate) highest_bid_seen: u64,
    /// `highest_bid_seen` at the last token-watchdog check; no advance
    /// between two checks means the token is presumed lost.
    bid_at_last_watchdog: u64,
    pub(crate) syncs_triggered: u64,
    pub(crate) server_aggs: u64,
    pub(crate) tokens_regenerated: u64,
    pub(crate) degraded_syncs: u64,
}

/// Alg. 2's `cnt[bid]` and the slots that answered `bid` (for crash
/// eviction), kept only for the bid of the token we hold: nothing reads
/// another. Held bids strictly increase — stale tokens are dropped, a
/// received one gains 1, a regeneration or restart jumps a lap and a lift
/// only raises — so an earlier bid's ledger is never read again, and the
/// next held bid resets it.
#[derive(Debug, Default)]
struct Ledger {
    bid: u64,
    models: usize,
    answered: Vec<usize>,
}

/// Lifts `token` over a ring epoch's bid floor and slot space, so every
/// copy still circulating under an older ring shape is dominated.
pub(crate) fn lift(token: &mut Token, bid_floor: u64, slots: usize) -> u64 {
    token.bid = token.bid.max(bid_floor);
    token.extend_to(slots);
    token.bid
}

impl Exchange {
    /// A fresh exchange over `slots` slots, holding `token` if given.
    pub(crate) fn new(slots: usize, token: Option<Token>) -> Self {
        Self {
            ages: vec![0.0; slots],
            highest_bid_seen: token.as_ref().map_or(0, |t| t.bid),
            token,
            ..Self::default()
        }
    }

    /// Absorbs a peer's claim that `slot`'s model has reached `age`. Peer
    /// entries only ever move up, and a non-finite claim — which no honest
    /// server makes — is ignored: one would keep `sync_wanted` true forever.
    fn absorb(&mut self, slot: usize, age: f64) {
        if let Some(known) = self.ages.get_mut(slot).filter(|_| age.is_finite()) {
            *known = known.max(age);
        }
    }

    /// Would `checkSynchronization` fire right now (Alg. 2 l. 22)? The
    /// drift term only ranges over *live* slots: a departed server's frozen
    /// age entry must not keep the ring re-synchronising forever.
    fn sync_wanted(&self, m: &Membership, l: &Local) -> bool {
        let drift = live_age_spread(&self.ages, m.ring.live_slots()) >= l.cfg.h_inter;
        let aged = l.age - self.age_prev >= l.cfg.h_intra;
        drift || aged
    }

    /// A bid a full lap of the ring above any seen and the epoch's floor
    /// (saturating: a peer can claim any bid).
    pub(crate) fn fresh_bid(&self, m: &Membership) -> u64 {
        let base = self.highest_bid_seen.max(m.bid_floor);
        base.saturating_add(m.ring.len() as u64)
    }

    /// The [`join_bid`] of a ring shape we propose to replace `m`'s.
    pub(crate) fn join_floor(&self, m: &Membership) -> u64 {
        join_bid(self.highest_bid_seen, m.ring.len())
    }

    /// Starts holding a new token under `bid`, carrying our ages.
    pub(crate) fn hold(&mut self, bid: u64) {
        let ages = self.ages.clone();
        self.token = Some(Token { bid, ages });
        self.highest_bid_seen = self.highest_bid_seen.max(bid);
    }

    /// Our own slot's entry follows our model's `age`.
    pub(crate) fn track_own_age(&mut self, m: &Membership, age: f64) {
        self.ages[m.slot] = age;
    }

    /// Our age knowledge, grown to `slots` for a joiner's bootstrap.
    pub(crate) fn ages_for(&self, slots: usize) -> Vec<f64> {
        let mut ages = self.ages.clone();
        ages.resize(slots.max(ages.len()), 0.0);
        ages
    }

    /// A joiner installs its sponsor's `ages`: our model *is* the sponsor's,
    /// so our slot starts at its `age`, and bids below `floor` are stale.
    pub(crate) fn install(&mut self, mut ages: Vec<f64>, m: &Membership, age: f64, floor: u64) {
        ages.resize(ages.len().max(m.ring.slots), 0.0);
        ages[m.slot] = age;
        self.ages = ages;
        self.age_prev = age;
        self.highest_bid_seen = self.highest_bid_seen.max(floor);
    }

    /// Evicted while alive: close, drop any (by construction stale) token
    /// and treat bids below the new epoch's `floor` as stale.
    pub(crate) fn stand_down(&mut self, env: &mut dyn Env<FlMsg>, floor: u64) {
        self.close(env, false);
        self.token = None;
        self.highest_bid_seen = self.highest_bid_seen.max(floor);
    }

    /// The ledger of the held `bid`, reset if an earlier bid left it.
    fn ledger(&mut self, bid: u64) -> &mut Ledger {
        if self.held.bid != bid {
            self.held = Ledger::default();
            self.held.bid = bid;
        }
        &mut self.held
    }

    /// Models counted toward `bid`: zero for any but the last held bid.
    pub(crate) fn models_counted(&self, bid: u64) -> usize {
        Some(&self.held)
            .filter(|h| h.bid == bid)
            .map_or(0, |h| h.models)
    }

    /// `true` once we sent our model under `bid`, or if it is too old to.
    pub(crate) fn has_broadcast(&self, bid: u64) -> bool {
        bid < self.highest_bid_seen.saturating_sub(ECHO_WINDOW) || self.echoed.contains(&bid)
    }

    /// Records a broadcast under `bid`, `false` if [`Self::has_broadcast`].
    /// Old bids go first, never a bid just added: two servers would echo
    /// that one to each other for ever.
    fn note_broadcast(&mut self, bid: u64) -> bool {
        let floor = self.highest_bid_seen.saturating_sub(ECHO_WINDOW);
        while self.echoed.first().is_some_and(|&b| b < floor) {
            self.echoed.pop_first();
        }
        bid >= floor && self.echoed.insert(bid)
    }

    /// Sends our model to every peer under synchronisation `bid`.
    fn send_model(&mut self, cx: &mut Cx, m: &Membership, bid: u64) {
        self.age_prev = cx.l.age;
        let model = FlMsg::ServerModel {
            params: cx.l.params.clone(),
            age: cx.l.age,
            bid,
            server_idx: m.slot,
        };
        fan_out(cx.env, m.ring.peers_of(m.slot), model);
    }

    /// Closes an open exchange; `superseded` counts one that a newer token
    /// or ring epoch overtook.
    pub(crate) fn close(&mut self, env: &mut dyn Env<FlMsg>, superseded: bool) {
        if self.ongoing {
            self.ongoing = false;
            env.span_exit("server.exchange");
            if superseded {
                env.add_counter("sync.superseded", 1);
            }
        }
    }

    /// Moves the exchange onto a ring of `slots` slots whose bids start at
    /// `floor`: age knowledge grows to the slot space, an open exchange
    /// closes as superseded and a held token is re-stamped over the floor.
    /// Both the completion check and the exchange timeout compare against
    /// the held bid, which the re-stamp changes: an exchange left open
    /// would wedge the holder.
    pub(crate) fn restamp(&mut self, env: &mut dyn Env<FlMsg>, floor: u64, slots: usize) {
        if self.ages.len() < slots {
            self.ages.resize(slots, 0.0);
        }
        self.close(env, true);
        if let Some(token) = &mut self.token {
            let bid = lift(token, floor, slots);
            self.highest_bid_seen = self.highest_bid_seen.max(bid);
        }
    }

    /// Alg. 2 `checkSynchronization`.
    pub(crate) fn check(&mut self, cx: &mut Cx, m: &Membership) {
        if m.ring.len() < 2 {
            return; // a single server has no one to synchronise with
        }
        if !self.sync_wanted(m, cx.l) {
            return;
        }
        match &self.token {
            Some(token) if !self.ongoing => {
                // l. 23–27: trigger an exchange under the current bid.
                let bid = token.bid;
                self.ongoing = true;
                cx.env.span_enter("server.exchange");
                self.note_broadcast(bid);
                // A peer's model for this bid may have counted already.
                self.ledger(bid).models = 1;
                self.syncs_triggered += 1;
                cx.env.add_counter("syncs.triggered", 1);
                self.send_model(cx, m, bid);
                // Recovery: do not wait forever for crashed peers' models.
                // The tag keeps the bid's low 56 bits (honest bids never
                // reach the top 8).
                if let Some(rec) = &cx.l.cfg.recovery {
                    let guarded = tag(KIND_EXCHANGE_TIMEOUT, bid & TAG_PAYLOAD_MASK);
                    cx.env.set_timer(rec.exchange_timeout, guarded);
                }
            }
            Some(_) => { /* already synchronising under this token */ }
            None => {
                // l. 29: advertise our age so the holder can trigger.
                // Rate-limited to one gossip per `gossip_backoff` locally
                // processed updates (see SpykerConfig::gossip_backoff).
                let processed = cx.l.ingest.processed();
                if processed >= self.last_gossip_at + cx.l.cfg.gossip_backoff {
                    self.last_gossip_at = processed;
                    m.gossip_age(cx.env, cx.l.age);
                }
            }
        }
    }

    /// Liveness + bounds guard on slot-indexed state: out-of-range slots
    /// come only from hostile bytes (`net.unexpected`); in-range dead slots
    /// are messages from a departed epoch still in flight
    /// (`membership.stale_slot`). Returns `true` when the slot is safe to
    /// touch.
    fn slot_is_current(&self, env: &mut dyn Env<FlMsg>, m: &Membership, slot: usize) -> bool {
        if slot >= self.ages.len() {
            env.add_counter("net.unexpected", 1);
            return false;
        }
        // A fixed ring's slots below `ages.len()` are all live.
        if !m.ring.is_live_slot(slot) {
            env.add_counter("membership.stale_slot", 1);
            return false;
        }
        true
    }

    /// Alg. 2 `RcvAge`.
    pub(crate) fn on_age_gossip(&mut self, cx: &mut Cx, m: &mut Membership, slot: usize, age: f64) {
        if !self.slot_is_current(cx.env, m, slot) {
            return;
        }
        self.absorb(slot, age);
        m.heard_from(slot);
        self.check(cx, m);
    }

    /// Alg. 2 `RcvToken`.
    pub(crate) fn on_token(&mut self, cx: &mut Cx, m: &Membership, mut token: Token) {
        // Recovery: after a regeneration the old token may still be in
        // flight (e.g. it was crossing a healed partition). Any token whose
        // bid is below the highest id we have witnessed is such a stale
        // copy; dropping it keeps regeneration idempotent — at most one
        // token survives per bid range.
        if cx.l.cfg.recovery.is_some() && token.bid < self.highest_bid_seen {
            cx.env.add_counter("token.stale_dropped", 1);
            return;
        }
        for (slot, &age) in token.ages.iter().enumerate() {
            self.absorb(slot, age);
        }
        // l. 17: stamp a fresh bid for the exchange this holder may
        // trigger (saturating: a peer's bid at the maximum must neither
        // overflow nor wrap below every stale-copy check).
        token.bid = token.bid.saturating_add(1);
        self.token = Some(token);
        // Membership: a token crossing into our ring epoch is lifted over
        // the epoch's bid floor (and grown to its slot space), so every
        // copy still circulating under the old shape is dominated. The
        // floor only rises through *held* tokens — raising
        // `highest_bid_seen` on mere epoch adoption would make every
        // member stale-drop the one live token.
        // A token accepted while an exchange is still open (possible only
        // with recovery, when a regenerated token overtakes the one that
        // was driving the exchange) supersedes that exchange: close it, or
        // this server would stay `ongoing` under a bid it never broadcast —
        // the exchange can then neither complete nor time out (both
        // compare against the *held* bid) and the server wedges out of the
        // sync ring holding the token forever.
        self.restamp(cx.env, m.bid_floor, m.ring.slots);
        cx.env.gauge_set("sync.token_holder", m.slot as f64);
        self.check(cx, m);
    }

    /// Alg. 2 `RcvModel` + `ServerAgg`.
    pub(crate) fn on_server_model(
        &mut self,
        cx: &mut Cx,
        m: &mut Membership,
        slot: usize,
        model: ParamVec,
        age: f64,
        bid: u64,
    ) {
        if !self.slot_is_current(cx.env, m, slot) {
            return;
        }
        self.highest_bid_seen = self.highest_bid_seen.max(bid);
        self.absorb(slot, age);
        if cx.l.cfg.membership.is_some() {
            m.heard_from(slot);
        }
        // l. 32–35: echo our model once per synchronisation id.
        if self.note_broadcast(bid) {
            self.send_model(cx, m, bid);
        }
        // A peer model the gate turns away only skips the merge: the echo
        // above and the token bookkeeping below must still run, or the
        // token holder waits forever on this bid.
        let l = &mut *cx.l;
        if l.ingest.admit_peer(cx.env, &l.params, &model, age) {
            // `ServerAgg` (ll. 45-50): sigmoid-weighted merge plus age blend.
            cx.env.busy(l.cfg.agg_cost);
            let w = server_agg_weight(l.cfg.phi, l.age, age);
            l.params.lerp_toward(&model, l.cfg.eta_a * w);
            l.age = blended_age(l.cfg.eta_a, w, l.age, age);
            self.track_own_age(m, l.age);
            self.server_aggs += 1;
            cx.env.add_counter("server.aggs", 1);
        }
        // l. 37–43: the token holder forwards the token once it has seen
        // every server's model for its bid. Who answered feeds crash
        // eviction.
        if self.token.as_ref().is_some_and(|t| t.bid == bid) {
            let held = self.ledger(bid);
            held.models += 1;
            if !held.answered.contains(&slot) {
                held.answered.push(slot);
            }
            // `>=`, not `==`: the ring may have shrunk mid-exchange.
            if held.models >= m.ring.len() {
                self.forward_token(cx.env, m);
            }
        }
    }

    /// Hands the token to the next server on the ring, carrying the
    /// freshest age knowledge, and closes the local exchange.
    pub(crate) fn forward_token(&mut self, env: &mut dyn Env<FlMsg>, m: &Membership) {
        // A stray or duplicate trigger — e.g. an exchange timeout racing
        // the normal completion after recovery — must not abort the run:
        // log the spurious call and keep serving.
        if let Some(mut token) = self.token.take() {
            token.ages = self.ages.clone();
            match m.ring.next_after(env.me()).map(|n| n.node) {
                Some(next) => env.send(next, FlMsg::TokenPass(token)),
                // The ring shrank to just us: nowhere to forward, keep
                // holding (a one-ring never synchronises, so the token just
                // waits for the next join).
                None => self.token = Some(token),
            }
        } else {
            env.add_counter("token.forward_spurious", 1);
        }
        self.close(env, false);
    }

    /// Token watchdog: if no synchronisation id advanced since the last
    /// check, the token is presumed lost and regenerated. The bid jumps by
    /// the ring size so the regenerated token dominates any stale copy
    /// regardless of how many in-flight increments that copy still
    /// receives before being dropped.
    pub(crate) fn on_token_watchdog(&mut self, cx: &mut Cx, m: &Membership) {
        if cx.l.cfg.recovery.is_none() {
            return;
        }
        // A server that left the ring stops guarding its token.
        if m.phase != Phase::Live {
            cx.l.token_watch_armed = false;
            return;
        }
        let stalled = self.highest_bid_seen == self.bid_at_last_watchdog;
        self.bid_at_last_watchdog = self.highest_bid_seen;
        // Regenerate only when the ring is silent AND this server actually
        // wants to synchronise: an idle ring (thresholds not met anywhere)
        // legitimately produces no bid traffic, and regenerating then
        // would breed one idle token per server.
        if stalled && self.token.is_none() && self.sync_wanted(m, cx.l) {
            self.hold(self.fresh_bid(m));
            self.tokens_regenerated += 1;
            cx.env.add_counter("token.regenerated", 1);
            self.check(cx, m);
        }
        cx.l.arm_token_watchdog(cx.env, m);
    }

    /// Exchange timeout: the holder stops waiting for peers that never
    /// answered the exchange the timer guards (the low 56 bits of its bid
    /// are `guarded`) and forwards the token with the subset it has.
    pub(crate) fn on_exchange_timeout(&mut self, cx: &mut Cx, m: &mut Membership, guarded: u64) {
        let held = self.token.as_ref().map(|t| t.bid);
        let Some(bid) = held.filter(|b| self.ongoing && b & TAG_PAYLOAD_MASK == guarded) else {
            return;
        };
        // Crash eviction: every live slot that did not answer this
        // exchange takes a miss; enough consecutive misses and the holder
        // unsplices it (the existing recovery path — degraded forward +
        // watchdogs — carries the ring meanwhile).
        let answered = std::mem::take(&mut self.ledger(bid).answered);
        let peers: Vec<usize> = m.ring.live_slots().filter(|&s| s != m.slot).collect();
        for slot in peers.into_iter().filter(|s| !answered.contains(s)) {
            m.note_miss(cx, self, slot);
        }
        self.degraded_syncs += 1;
        cx.env.add_counter("sync.degraded", 1);
        self.forward_token(cx.env, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecoveryConfig, SpykerConfig};
    use crate::membership::{MembershipConfig, RingView};
    use crate::server::tests::{
        build_faulty_sim, build_two_server_sim, drive, exchange_of, member, recovery_cfg, server,
        tight_cfg,
    };
    use crate::server::{SpykerServer, KIND_TOKEN_WATCHDOG};
    use crate::test_support::MockEnv;
    use spyker_simnet::{FaultPlan, Node, NodeId, SimTime};

    const RECOVERY: RecoveryConfig = RecoveryConfig {
        token_timeout: SimTime::from_secs(2),
        exchange_timeout: SimTime::from_secs(1),
        client_timeout: SimTime::from_secs(1),
    };

    /// Thresholds that every update (and none at all) meets, with recovery.
    fn eager_cfg(n: usize) -> SpykerConfig {
        SpykerConfig::paper_defaults(n, n)
            .with_thresholds(0.0, 0.0)
            .with_recovery(RECOVERY)
    }

    fn model(v: &[f32], age: f64, bid: u64, server_idx: usize) -> FlMsg {
        let params = ParamVec::from_vec(v.to_vec());
        FlMsg::ServerModel {
            params,
            age,
            bid,
            server_idx,
        }
    }

    /// `(to, bid)` of every `ServerModel` sent so far.
    fn models_sent(env: &MockEnv) -> Vec<(NodeId, u64)> {
        let models = env.sent.iter().filter_map(|(to, msg)| match msg {
            FlMsg::ServerModel { bid, .. } => Some((*to, *bid)),
            _ => None,
        });
        models.collect()
    }

    fn token_passes(env: &MockEnv) -> Vec<(NodeId, u64)> {
        let passes = env.sent.iter().filter_map(|(to, msg)| match msg {
            FlMsg::TokenPass(t) => Some((*to, t.bid)),
            _ => None,
        });
        passes.collect()
    }

    #[test]
    fn the_holder_triggers_once_and_arms_the_exchange_timeout() {
        let mut s = member(0, 3, eager_cfg(3));
        let mut env = MockEnv::new(0, 6);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        assert_eq!(env.spans, [("server.exchange", true)]);
        assert_eq!(models_sent(&env), [(1, 1), (2, 1)]);
        assert_eq!(env.counter("syncs.triggered"), 1);
        let timeout = tag(KIND_EXCHANGE_TIMEOUT, 1);
        assert_eq!(env.timers, [(RECOVERY.exchange_timeout, timeout)]);
        assert!(s.is_synchronising() && s.has_broadcast(1));
        assert_eq!(s.models_counted(1), 1);
        // Already synchronising under this token: nothing more happens.
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        assert_eq!((env.sent.len(), env.timers.len()), (2, 1));
    }

    #[test]
    fn a_tokenless_server_gossips_its_age_at_the_backoff_rate() {
        let mut cfg = eager_cfg(3);
        cfg.gossip_backoff = 0;
        let mut s = member(1, 3, cfg);
        let mut env = MockEnv::new(1, 6);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        let gossip: Vec<NodeId> = env.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(gossip, [0, 2]);
        assert!(matches!(
            env.sent[0].1,
            FlMsg::AgeGossip { server_idx: 1, .. }
        ));
        // The default back-off waits for five processed updates.
        let mut s = member(1, 3, eager_cfg(3));
        let mut env = MockEnv::new(1, 6);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        assert!(env.sent.is_empty());
    }

    #[test]
    fn a_received_token_is_lifted_over_the_floor_and_stale_copies_drop() {
        let cfg = SpykerConfig::paper_defaults(2, 2)
            .with_thresholds(1e12, 1e12)
            .with_recovery(RECOVERY)
            .with_membership(MembershipConfig::default());
        let mut s = member(1, 2, cfg);
        let mut env = MockEnv::new(1, 4);
        let ring = RingView {
            epoch: 1,
            ..RingView::fixed(&[0, 1])
        };
        let bid_floor = 10;
        s.on_message(&mut env, 0, FlMsg::RingUpdate { ring, bid_floor });
        s.on_message(&mut env, 0, FlMsg::TokenPass(Token::initial(2)));
        assert_eq!(s.token_bid(), Some(10));
        assert_eq!(s.highest_bid_seen(), 10);
        assert_eq!(env.gauge("sync.token_holder"), Some(1.0));
        let copy = FlMsg::TokenPass(Token {
            bid: 7,
            ages: vec![0.0; 2],
        });
        s.on_message(&mut env, 0, copy);
        assert_eq!(env.counter("token.stale_dropped"), 1);
        assert_eq!(s.token_bid(), Some(10));
    }

    #[test]
    fn a_token_accepted_mid_exchange_supersedes_it() {
        let mut s = member(0, 2, eager_cfg(2));
        let mut env = MockEnv::new(0, 4);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        let newer = FlMsg::TokenPass(Token {
            bid: 50,
            ages: vec![0.0; 2],
        });
        s.on_message(&mut env, 1, newer);
        assert_eq!(env.counter("sync.superseded"), 1);
        // Closed, then re-triggered under the new bid.
        let exchange = ("server.exchange", true);
        let closed = ("server.exchange", false);
        assert_eq!(env.spans, [exchange, closed, exchange]);
        assert_eq!(s.token_bid(), Some(51));
        assert_eq!(models_sent(&env), [(1, 1), (1, 51)]);
    }

    #[test]
    fn the_holder_forwards_once_every_live_peer_answered() {
        let mut s = member(0, 3, eager_cfg(3));
        let mut env = MockEnv::new(0, 6);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        s.on_message(&mut env, 1, model(&[1.0, 1.0], 1.0, 1, 1));
        assert!(s.has_token(), "forwarded before slot 2 answered");
        s.on_message(&mut env, 2, model(&[1.0, 1.0], 1.0, 1, 2));
        assert_eq!(token_passes(&env), [(1, 1)]);
        assert!(!s.has_token() && !s.is_synchronising());
        assert_eq!(s.models_counted(1), 3);
        // The holder broadcast bid 1 when it triggered: no echo.
        assert_eq!(models_sent(&env), [(1, 1), (2, 1)]);
        assert_eq!(s.server_aggs(), 2);
    }

    #[test]
    fn a_peer_answers_each_bid_exactly_once() {
        let mut s = member(1, 3, eager_cfg(3));
        let mut env = MockEnv::new(1, 6);
        s.on_message(&mut env, 0, model(&[1.0, 1.0], 1.0, 7, 0));
        s.on_message(&mut env, 2, model(&[1.0, 1.0], 1.0, 7, 2));
        assert_eq!(models_sent(&env), [(0, 7), (2, 7)]);
        assert!(s.has_broadcast(7));
        assert_eq!(s.highest_bid_seen(), 7);
    }

    #[test]
    fn a_model_far_below_the_highest_bid_is_merged_but_never_echoed() {
        let mut s = member(1, 3, eager_cfg(3));
        let mut env = MockEnv::new(1, 6);
        s.on_message(&mut env, 0, model(&[1.0, 1.0], 1.0, 200, 0));
        let old = 200 - ECHO_WINDOW - 1;
        for aggs in [2, 3] {
            s.on_message(&mut env, 2, model(&[1.0, 1.0], 1.0, old, 2));
            assert_eq!(s.server_aggs(), aggs);
        }
        assert_eq!(models_sent(&env), [(0, 200), (2, 200)]);
        assert!(s.has_broadcast(old) && !s.has_broadcast(old + 1));
        // The edge of the window is still answered.
        s.on_message(&mut env, 2, model(&[1.0, 1.0], 1.0, old + 1, 2));
        assert_eq!(models_sent(&env)[2..], [(0, old + 1), (2, old + 1)]);
    }

    #[test]
    fn a_long_run_keeps_one_held_bid_ledger_and_a_bounded_echo_set() {
        let cfg = recovery_cfg().with_membership(MembershipConfig::default());
        let mut sim = build_two_server_sim(cfg);
        sim.run(SimTime::from_secs(1000));
        for id in 0..2 {
            let x = exchange_of(server(&sim, id));
            assert!(x.highest_bid_seen > 10 * ECHO_WINDOW, "too few exchanges");
            assert!(
                x.echoed.len() as u64 <= ECHO_WINDOW + 1,
                "{}",
                x.echoed.len()
            );
            assert!(x
                .echoed
                .iter()
                .all(|&b| b + ECHO_WINDOW >= x.highest_bid_seen));
            assert!(x.held.bid <= x.highest_bid_seen && x.held.answered.len() <= 1);
        }
    }

    #[test]
    fn the_token_watchdog_regenerates_a_silent_ring_once() {
        let mut s = member(
            1,
            2,
            eager_cfg(2).with_membership(MembershipConfig::default()),
        );
        let mut env = MockEnv::new(1, 4);
        let watchdog = tag(KIND_TOKEN_WATCHDOG, 0);
        s.on_timer(&mut env, watchdog);
        assert_eq!(s.tokens_regenerated(), 1);
        // A full lap of the two-ring above anything seen.
        assert_eq!(s.token_bid(), Some(2));
        assert_eq!(env.counter("token.regenerated"), 1);
        // Re-armed, staggered by ring position 1.
        let delay = RECOVERY.token_timeout * 2;
        assert_eq!(env.timers.last(), Some(&(delay, watchdog)));
        // Holding a token, a second silent check regenerates nothing.
        s.on_timer(&mut env, watchdog);
        assert_eq!(s.tokens_regenerated(), 1);
        // Off the ring, the chain stops.
        s.on_message(&mut env, 9, FlMsg::ScaleDown);
        let armed = env.timers.len();
        s.on_timer(&mut env, watchdog);
        assert_eq!(env.timers.len(), armed);
    }

    #[test]
    fn an_exchange_timeout_degrades_and_counts_misses_toward_eviction() {
        let membership = MembershipConfig {
            evict_after_misses: 2,
            ..MembershipConfig::default()
        };
        let mut s = member(0, 3, eager_cfg(3).with_membership(membership));
        let mut env = MockEnv::new(0, 6);
        let timeout = |bid| tag(KIND_EXCHANGE_TIMEOUT, bid);
        for (round, bid) in [(1, 1), (2, 6)] {
            if round == 2 {
                let back = FlMsg::TokenPass(Token {
                    bid: 5,
                    ages: vec![0.0; 3],
                });
                s.on_message(&mut env, 2, back);
            }
            drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
            s.on_message(&mut env, 1, model(&[0.0, 0.0], 0.0, bid, 1));
            // A timer for another bid is stale.
            s.on_timer(&mut env, timeout(bid + 100));
            assert_eq!(s.degraded_syncs(), round - 1);
            s.on_timer(&mut env, timeout(bid));
            assert_eq!(s.degraded_syncs(), round);
        }
        // Slot 2 never answered twice in a row: evicted, and told so.
        assert_eq!(env.counter("membership.evictions"), 1);
        assert_eq!(s.ring_epoch(), 1);
        let told = env
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, FlMsg::RingUpdate { .. }));
        let told: Vec<NodeId> = told.map(|(to, _)| *to).collect();
        assert_eq!(told, [1, 2]);
        assert!(token_passes(&env).iter().all(|&(to, _)| to == 1));
    }

    #[test]
    fn a_restart_closes_the_exchange_and_restamps_a_held_token() {
        let mut s = member(0, 2, eager_cfg(2));
        let mut env = MockEnv::new(0, 4);
        drive(&mut s, &mut env, |x, m, cx| x.check(cx, m));
        s.on_restart(&mut env);
        assert!(!s.is_synchronising());
        assert_eq!(env.counter("sync.superseded"), 0);
        assert_eq!(env.counter("server.restarts"), 1);
        // One lap of the two-ring above bid 1.
        assert_eq!(s.token_bid(), Some(3));
        assert_eq!(s.highest_bid_seen(), 3);
    }

    #[test]
    fn restamp_grows_ages_and_lifts_only_a_held_token() {
        let mut s = member(1, 2, eager_cfg(2));
        let mut env = MockEnv::new(1, 4);
        drive(&mut s, &mut env, |x, _, cx| x.restamp(cx.env, 9, 4));
        assert_eq!(s.known_ages().len(), 4);
        assert_eq!((s.token_bid(), s.highest_bid_seen()), (None, 0));
        s.debug_force_token(3);
        drive(&mut s, &mut env, |x, _, cx| x.restamp(cx.env, 9, 5));
        assert_eq!((s.token_bid(), s.highest_bid_seen()), (Some(9), 9));
    }

    // ---- peers may lie: one frame must not panic or poison a server ----

    #[test]
    fn non_finite_peer_ages_are_ignored_in_every_message_kind() {
        let cfg = || SpykerConfig::paper_defaults(2, 2);
        let lies = [
            (
                0,
                FlMsg::AgeGossip {
                    age: f64::INFINITY,
                    server_idx: 1,
                },
            ),
            (
                1,
                FlMsg::TokenPass(Token {
                    bid: 1,
                    ages: vec![f64::INFINITY; 2],
                }),
            ),
            // Of another dimension, so the gate rejects the model: its age
            // claim must not stick either.
            (0, model(&[0.0; 3], f64::INFINITY, 1, 1)),
        ];
        for (to, lie) in lies {
            let mut s = member(to, 2, cfg());
            let mut env = MockEnv::new(to, 4);
            s.on_message(&mut env, 1 - to, lie);
            assert!(
                s.known_ages().iter().all(|a| a.is_finite()),
                "server {to} absorbed {:?}",
                s.known_ages()
            );
        }
    }

    #[test]
    fn hostile_bids_saturate_instead_of_overflowing() {
        let cfg = eager_cfg(2).with_membership(MembershipConfig::default());
        let watchdog = tag(KIND_TOKEN_WATCHDOG, 0);
        // A token at the maximum bid reaches the holder-to-be.
        let mut s = member(1, 2, cfg.clone());
        let mut env = MockEnv::new(1, 12);
        let max = Token {
            bid: u64::MAX,
            ages: vec![0.0; 2],
        };
        s.on_message(&mut env, 0, FlMsg::TokenPass(max));
        assert_eq!(s.token_bid(), Some(u64::MAX));
        s.on_restart(&mut env);
        assert_eq!(s.token_bid(), Some(u64::MAX));
        // A model at the maximum bid raises the highest bid seen; the
        // regeneration and the join floor built on it must not overflow.
        let mut s = member(1, 2, cfg);
        s.on_message(&mut env, 0, model(&[0.0, 0.0], 0.0, u64::MAX, 0));
        assert_eq!(s.highest_bid_seen(), u64::MAX);
        s.on_timer(&mut env, watchdog);
        s.on_timer(&mut env, watchdog);
        s.on_message(&mut env, 9, FlMsg::JoinRequest { region: 0 });
        assert_eq!(s.ring_epoch(), 1);
        assert_eq!(s.highest_bid_seen(), u64::MAX);
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
        let mut env = MockEnv::new(1, 6);
        drive(&mut s, &mut env, |x, m, cx| {
            x.ongoing = true;
            x.forward_token(cx.env, m);
        });
        assert_eq!(env.counter("token.forward_spurious"), 1);
        assert!(env.sent.is_empty(), "no token must leave the server");
        assert!(!s.is_synchronising());
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
            assert!(s.is_synchronising(), "exchange should have been triggered");
            let bid = s.token_bid().expect("still holds the token");
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
            assert!(!s.is_synchronising());
            assert!(
                env.sent
                    .iter()
                    .any(|(to, m)| *to == 1 && matches!(m, FlMsg::TokenPass(_))),
                "token was never forwarded"
            );
        }
    }
}
