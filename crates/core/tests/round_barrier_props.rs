//! Property tests for [`RoundBarrier`], the one round barrier of FedAvg,
//! the HierFAVG edge and cloud, and Sync-Spyker: it completes exactly when
//! every member has offered, closing it yields each member's last usable
//! offer in member order, and offers from strangers change nothing.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use spyker_core::barrier::RoundBarrier;

/// Offers as `(id, usable, value)`; ids run past the member range so some
/// come from strangers.
fn offers() -> impl Strategy<Value = Vec<(usize, u8, u32)>> {
    prop::collection::vec((0usize..16, 0u8..2, 0u32..1000), 0..24)
}

proptest! {
    #[test]
    fn a_barrier_keeps_each_members_last_offer(
        members in prop::collection::vec(0usize..12, 1..6),
        offers in offers(),
    ) {
        let set: BTreeSet<usize> = members.iter().copied().collect();
        let mut barrier = RoundBarrier::new(members.iter().copied());
        // The same round without the strangers' offers.
        let mut members_only = RoundBarrier::new(members.iter().copied());
        let mut last: BTreeMap<usize, Option<u32>> = BTreeMap::new();
        for &(id, usable, value) in &offers {
            let entry = (usable == 1).then_some(value);
            prop_assert_eq!(barrier.is_member(id), set.contains(&id));
            barrier.offer(id, entry);
            if set.contains(&id) {
                members_only.offer(id, entry);
                last.insert(id, entry);
            }
            prop_assert_eq!(barrier.is_complete(), last.len() == set.len());
            prop_assert_eq!(barrier.is_complete(), members_only.is_complete());
        }
        let want: Vec<u32> = last.values().flatten().copied().collect();
        prop_assert_eq!(barrier.close(), want.clone());
        prop_assert_eq!(members_only.close(), want);
        // Closing empties every slot for the next round.
        prop_assert!(!barrier.is_complete());
        prop_assert!(barrier.close().is_empty());
    }
}
