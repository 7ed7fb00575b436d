//! A flat open-addressed map keyed by `(NodeId, NodeId)` pairs.
//!
//! The simulator keeps per-link state (FIFO release times, send counters,
//! flow queues) keyed by directed node pairs. `std::collections::HashMap`
//! with SipHash costs a full hash + probe per delivery on the hot path;
//! at 10⁵–10⁶ clients that shows up. `PairMap` packs the pair into one
//! `u64`, hashes it with a single multiply (Fibonacci hashing) and probes
//! linearly through a power-of-two table — the common case is one probe
//! into one cache line. Determinism: the map is only ever read
//! point-wise (no iteration is offered), so table layout never influences
//! simulation behaviour.

const EMPTY: u64 = u64::MAX;

/// Packs a directed `(from, to)` node pair into the table key.
///
/// Node ids are dense `usize` indices; simulations stay far below
/// `u32::MAX` nodes (debug-asserted), and the all-ones key is reserved
/// as the empty-slot marker.
#[inline]
fn pack(from: usize, to: usize) -> u64 {
    debug_assert!(from < u32::MAX as usize && to < u32::MAX as usize);
    ((from as u64) << 32) | to as u64
}

#[inline]
fn home_slot(key: u64, mask: usize) -> usize {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize & mask
}

/// Open-addressed `(NodeId, NodeId) -> V` map with linear probing.
///
/// Entries are never removed (a link, once used, stays live), so no
/// tombstones are needed. Values live in a dense insertion-ordered `Vec`;
/// slots store the packed key plus the value index.
#[derive(Debug, Clone)]
pub(crate) struct PairMap<V> {
    keys: Vec<u64>,
    /// Slot -> index into `vals` (parallel to `keys`).
    idx: Vec<u32>,
    vals: Vec<V>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

impl<V> PairMap<V> {
    pub(crate) fn new() -> Self {
        Self::with_capacity(16)
    }

    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        Self {
            keys: vec![EMPTY; cap],
            idx: vec![0; cap],
            vals: Vec::new(),
            mask: cap - 1,
        }
    }

    /// Index of `key`'s slot: occupied-by-key or the first empty slot.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = home_slot(key, self.mask);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cfg(test)]
    pub(crate) fn get(&self, from: usize, to: usize) -> Option<&V> {
        let key = pack(from, to);
        let i = self.probe(key);
        (self.keys[i] == key).then(|| &self.vals[self.idx[i] as usize])
    }

    /// Mutable reference to the pair's value, inserting `V::default()`
    /// first if absent (the `entry().or_default()` shape the simulator
    /// uses).
    #[inline]
    pub(crate) fn get_or_default(&mut self, from: usize, to: usize) -> &mut V
    where
        V: Default,
    {
        let key = pack(from, to);
        let mut i = self.probe(key);
        if self.keys[i] != key {
            if (self.vals.len() + 1) * 4 > (self.mask + 1) * 3 {
                self.grow();
                i = self.probe(key);
            }
            self.keys[i] = key;
            self.idx[i] = u32::try_from(self.vals.len()).expect("pair map overflow");
            self.vals.push(V::default());
        }
        &mut self.vals[self.idx[i] as usize]
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_idx = std::mem::replace(&mut self.idx, vec![0; new_cap]);
        self.mask = new_cap - 1;
        for (slot, key) in old_keys.iter().enumerate() {
            if *key == EMPTY {
                continue;
            }
            let mut i = home_slot(*key, self.mask);
            while self.keys[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = *key;
            self.idx[i] = old_idx[slot];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_and_growth() {
        let mut m: PairMap<u64> = PairMap::new();
        assert!(m.get(0, 1).is_none());
        for from in 0..40usize {
            for to in 0..40usize {
                *m.get_or_default(from, to) += (from * 1000 + to) as u64;
            }
        }
        // Growth preserved every entry.
        for from in 0..40usize {
            for to in 0..40usize {
                assert_eq!(m.get(from, to), Some(&((from * 1000 + to) as u64)));
            }
        }
        assert!(m.get(40, 0).is_none());
        // Directed: (a, b) and (b, a) are distinct.
        *m.get_or_default(3, 7) += 1;
        assert_ne!(m.get(3, 7), m.get(7, 3));
    }

    #[test]
    fn entry_semantics_match_hashmap_or_default() {
        let mut m: PairMap<u32> = PairMap::new();
        let v = m.get_or_default(5, 6);
        assert_eq!(*v, 0);
        *v = 7;
        assert_eq!(*m.get_or_default(5, 6), 7);
    }
}
