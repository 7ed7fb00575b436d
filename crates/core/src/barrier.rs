//! The round barrier every round-based protocol waits on: FedAvg, the
//! HierFAVG edge and cloud, and Sync-Spyker's model exchange.
//!
//! A round expects one offer from each member of a fixed set. The caller
//! decides what an offer is worth before it offers it; the barrier only
//! keeps the slots:
//! - an offer from outside the member set fills no slot;
//! - a member's offer fills that member's slot, and a second offer in the
//!   same round replaces the first;
//! - an unusable offer (`None`) fills its slot but stays out of the result;
//! - the round is complete once every member has offered, and closing it
//!   yields the usable entries in ascending member order, the one order
//!   every caller sums in, so a mean over them is reproducible.

/// One round's slots, one per member: `None` until the member offers, then
/// `Some(entry)`, where an `entry` of `None` marks an unusable offer.
pub struct RoundBarrier<T> {
    /// Member ids, ascending and distinct.
    members: Vec<usize>,
    slots: Vec<Option<Option<T>>>,
    filled: usize,
}

impl<T> RoundBarrier<T> {
    /// An open round expecting one offer from each of `members` (node ids
    /// or ring slots; order and repeats do not matter).
    pub fn new(members: impl IntoIterator<Item = usize>) -> Self {
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let slots = members.iter().map(|_| None).collect();
        Self {
            members,
            slots,
            filled: 0,
        }
    }

    /// Whether `id` holds a slot in this round.
    pub fn is_member(&self, id: usize) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Fills `member`'s slot with `entry` (`None` for an unusable offer),
    /// replacing an earlier offer of the same round. Changes nothing when
    /// `member` holds no slot.
    pub fn offer(&mut self, member: usize, entry: Option<T>) {
        let Ok(at) = self.members.binary_search(&member) else {
            return;
        };
        if self.slots[at].replace(entry).is_none() {
            self.filled += 1;
        }
    }

    /// Whether every member has offered.
    pub fn is_complete(&self) -> bool {
        self.filled == self.members.len()
    }

    /// Whether no member has offered yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Ends the round: the usable entries in ascending member order. Every
    /// slot is emptied, so the same members can start the next round.
    pub fn close(&mut self) -> Vec<T> {
        self.filled = 0;
        self.slots.iter_mut().filter_map(|s| s.take()?).collect()
    }
}
