//! A hierarchical timer wheel with the exact ordering of a `(time, seq)`
//! min-heap.
//!
//! The simulator's event queue was a `BinaryHeap<Event>` — `O(log n)`
//! push/pop with cache-hostile sift paths that dominate the run loop once
//! hundreds of thousands of timers and deliveries are pending. This wheel
//! gives amortized `O(1)` scheduling: eleven levels of 64 slots each cover
//! the full `u64` microsecond range (6 bits per level, `6 × 11 = 66 ≥
//! 64`), a `u64` occupancy bitmap per level finds the next non-empty slot
//! with one `trailing_zeros`, and events cascade down a level at a time
//! as the cursor reaches their slot.
//!
//! **Ordering contract** (pinned by the `wheel_props` equivalence suite
//! and every golden trace): `pop` yields events in exactly ascending
//! `(time, seq)` order, byte-identical to the binary heap it replaced.
//! The wheel relies on two invariants the simulator upholds:
//!
//! * pushes never go to the past — `time >= cursor` (debug-asserted);
//! * a level-0 slot spans exactly one microsecond tick, so draining a
//!   slot only needs a seq sort (stable within one tick), and the drained
//!   batch is usually already seq-sorted because `seq` is assigned
//!   monotonically at push time.

use std::collections::VecDeque;

use crate::des::Event;

/// 6 bits per level.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 64;
/// `ceil(64 / 6)` levels cover every representable microsecond.
const LEVELS: usize = 11;

struct Level<M> {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: [Vec<Event<M>>; SLOTS],
}

impl<M> Level<M> {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// The wheel. See the module docs for the structure and ordering
/// contract.
pub(crate) struct TimerWheel<M> {
    levels: Vec<Level<M>>,
    /// All events with `time < cursor` have been popped; the ready queue
    /// holds the events of the current tick (`time == cursor`), seq-sorted.
    cursor: u64,
    ready: VecDeque<Event<M>>,
    len: usize,
    /// Recycled slot buffer: cascading swaps the drained slot's `Vec` with
    /// this one instead of dropping it, so steady-state cascades allocate
    /// nothing (a `mem::take` here cost a malloc per drained slot, which
    /// dominated the wheel at millions of events).
    spare: Vec<Event<M>>,
}

impl<M> TimerWheel<M> {
    pub(crate) fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            cursor: 0,
            ready: VecDeque::new(),
            len: 0,
            spare: Vec::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, ev: Event<M>) {
        self.len += 1;
        self.place(ev);
    }

    /// Files `ev` into the level whose slot granularity matches its
    /// distance from the cursor (no `len` bookkeeping — shared by `push`
    /// and cascading).
    fn place(&mut self, ev: Event<M>) {
        let t = ev.time.as_micros();
        debug_assert!(
            t >= self.cursor,
            "push into the past: {t} < {}",
            self.cursor
        );
        if t <= self.cursor {
            // Current tick: merge into the ready queue by seq. The common
            // case (monotone seq) is a plain append; the rare out-of-order
            // case (an event re-queued after a probe break) walks in.
            if self.ready.back().is_none_or(|b| b.seq < ev.seq) {
                self.ready.push_back(ev);
            } else {
                let pos = self
                    .ready
                    .iter()
                    .position(|e| e.seq > ev.seq)
                    .unwrap_or(self.ready.len());
                self.ready.insert(pos, ev);
            }
            return;
        }
        // The level of the highest 6-bit group where `t` differs from the
        // cursor: within that group `t`'s slot is strictly ahead of the
        // cursor's, and both share the parent slot one level up.
        let diff = t ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((t >> (SLOT_BITS * level as u32)) & 63) as usize;
        let lv = &mut self.levels[level];
        lv.occupied |= 1u64 << slot;
        lv.slots[slot].push(ev);
    }

    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        loop {
            if let Some(ev) = self.ready.pop_front() {
                self.len -= 1;
                return Some(ev);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Moves the cursor to the next occupied tick: drains the next
    /// occupied level-0 slot into the ready queue, cascading one higher
    /// level down first when level 0 is empty.
    fn advance(&mut self) {
        // Level 0: the 64-tick window around the cursor. The cursor's own
        // slot was drained when the cursor arrived, so scanning from it is
        // safe (its bit is clear).
        let s0 = (self.cursor & 63) as usize;
        let mask = self.levels[0].occupied & (!0u64 << s0);
        if mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            self.cursor = (self.cursor & !63) | slot as u64;
            self.levels[0].occupied &= !(1u64 << slot);
            let batch = &mut self.levels[0].slots[slot];
            // One slot == one tick; order within a tick is seq order. The
            // batch is seq-sorted already in the common case (pushes are
            // seq-monotone), making this O(n). Draining (not taking)
            // keeps the slot's capacity for its next lap of the wheel.
            batch.sort_unstable_by_key(|e| e.seq);
            debug_assert!(batch.iter().all(|e| e.time.as_micros() == self.cursor));
            self.ready.extend(batch.drain(..));
            return;
        }
        for level in 1..LEVELS {
            let sl = ((self.cursor >> (SLOT_BITS * level as u32)) & 63) as usize;
            let mask = self.levels[level].occupied & (!0u64 << sl);
            if mask == 0 {
                continue;
            }
            let slot = mask.trailing_zeros() as usize;
            let width = SLOT_BITS * level as u32;
            // Jump the cursor to the slot's first tick (all skipped slots
            // are empty at every level below), then cascade the slot's
            // events — each lands at a strictly lower level. The top level
            // has no parent: its would-be shift of 66 bits is a base of 0.
            let parent_base = self
                .cursor
                .checked_shr(width + SLOT_BITS)
                .map_or(0, |parent| parent << (width + SLOT_BITS));
            self.cursor = parent_base | ((slot as u64) << width);
            self.levels[level].occupied &= !(1u64 << slot);
            let spare = std::mem::take(&mut self.spare);
            let mut batch = std::mem::replace(&mut self.levels[level].slots[slot], spare);
            for ev in batch.drain(..) {
                self.place(ev);
            }
            self.spare = batch;
            return;
        }
        unreachable!("len > 0 but no occupied slot at or after the cursor");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{EventBody, Input};
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(time_us: u64, seq: u64) -> Event<()> {
        Event {
            time: SimTime::from_micros(time_us),
            seq,
            node: 0,
            body: EventBody::Input(Input::Timer { tag: 0 }),
            queued: None,
        }
    }

    /// xorshift64* — deterministic stream without external deps.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// Drives the wheel and a reference min-heap through an identical
    /// interleaved push/pop schedule and asserts identical pop order.
    fn check_against_heap(mut schedule: impl FnMut(u64, u64) -> Option<(u64, u64)>) {
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        while let Some((t, n_pops)) = schedule(now, seq) {
            let t = t.max(now);
            wheel.push(ev(t, seq));
            heap.push(Reverse((t, seq)));
            seq += 1;
            for _ in 0..n_pops {
                let Some(Reverse((ht, hs))) = heap.pop() else {
                    break;
                };
                let got = wheel.pop().expect("wheel empty before heap");
                assert_eq!(
                    (got.time.as_micros(), got.seq),
                    (ht, hs),
                    "wheel diverged from heap order"
                );
                now = ht;
            }
        }
        while let Some(Reverse((ht, hs))) = heap.pop() {
            let got = wheel.pop().expect("wheel empty before heap");
            assert_eq!((got.time.as_micros(), got.seq), (ht, hs));
        }
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn random_schedule_matches_heap_order() {
        let mut rng = Rng(0x1234_5678_9abc_def0);
        let mut steps = 0;
        check_against_heap(|now, _seq| {
            steps += 1;
            if steps > 20_000 {
                return None;
            }
            let r = rng.next();
            // Mixed horizons: same tick, near, mid, far future.
            let delta = match r % 8 {
                0 => 0,
                1..=4 => r % 64,
                5 | 6 => r % 100_000,
                _ => r % 50_000_000_000, // ~14 h of microseconds
            };
            Some((now + delta, rng.next() % 3))
        });
    }

    #[test]
    fn same_tick_bursts_pop_in_seq_order() {
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        for seq in 0..1000 {
            wheel.push(ev(42, seq));
        }
        for seq in 0..1000 {
            let got = wheel.pop().unwrap();
            assert_eq!((got.time.as_micros(), got.seq), (42, seq));
        }
    }

    #[test]
    fn far_future_timers_cascade_correctly() {
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        // A timer nine "years" out, one next microsecond, one mid-range.
        wheel.push(ev(9 * 365 * 24 * 3600 * 1_000_000, 0));
        wheel.push(ev(1, 1));
        wheel.push(ev(1 << 40, 2));
        assert_eq!(wheel.pop().unwrap().seq, 1);
        assert_eq!(wheel.pop().unwrap().seq, 2);
        assert_eq!(wheel.pop().unwrap().seq, 0);
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn the_top_level_cascades_to_the_last_microsecond() {
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        let times = [u64::MAX, 1 << 62, 5, 1 << 60, u64::MAX];
        for (seq, &t) in times.iter().enumerate() {
            wheel.push(ev(t, seq as u64));
        }
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| wheel.pop())
            .map(|e| (e.time.as_micros(), e.seq))
            .collect();
        assert_eq!(
            popped,
            [
                (5, 2),
                (1 << 60, 3),
                (1 << 62, 1),
                (u64::MAX, 0),
                (u64::MAX, 4)
            ]
        );
    }

    #[test]
    fn push_at_current_tick_lands_behind_drained_batch() {
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        wheel.push(ev(10, 0));
        wheel.push(ev(10, 1));
        let first = wheel.pop().unwrap();
        assert_eq!(first.seq, 0);
        // Handler pushes a zero-delay event at the current tick: larger
        // seq, so it pops after the rest of the tick.
        wheel.push(ev(10, 5));
        assert_eq!(wheel.pop().unwrap().seq, 1);
        assert_eq!(wheel.pop().unwrap().seq, 5);
    }

    #[test]
    fn requeued_event_with_old_seq_pops_first() {
        // A probe break re-queues the popped event; its (old, small) seq
        // must still win over same-tick events with larger seqs.
        let mut wheel: TimerWheel<()> = TimerWheel::new();
        wheel.push(ev(10, 3));
        wheel.push(ev(10, 7));
        let popped = wheel.pop().unwrap();
        assert_eq!(popped.seq, 3);
        wheel.push(popped); // resume later
        assert_eq!(wheel.pop().unwrap().seq, 3);
        assert_eq!(wheel.pop().unwrap().seq, 7);
    }
}
