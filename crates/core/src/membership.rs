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

use spyker_simnet::{NodeId, Region, SimTime};

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// clears both).
pub fn join_bid(highest_bid_seen: u64, old_ring_len: usize) -> u64 {
    highest_bid_seen + old_ring_len as u64 + 1
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
