//! Deterministic event queues: a hierarchical timing wheel and a
//! binary-heap oracle.
//!
//! Both order events by `(time, sequence)`. The monotone sequence number
//! breaks ties between events scheduled for the same instant in *insertion
//! order*, which makes simulation runs fully deterministic — a property a
//! plain `BinaryHeap` alone does not guarantee.
//!
//! [`EventQueue`] is the production implementation: a six-level, 64-slot
//! hierarchical timing wheel over microsecond ticks (the classic
//! Varghese–Lauck scheme). Schedule and pop are O(1) amortized instead of
//! the heap's O(log n), which is what makes million-node simulations with
//! tens of millions of in-flight events tractable. The original heap
//! (`HeapQueue`) lives in this file's test code as the *oracle*: the
//! property tests below drive both with identical random schedules
//! (same-tick bursts, far-future overflow events) and require identical
//! pop sequences, so replay fingerprints stay byte-identical across the
//! swap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tao_util::time::SimTime;

/// An event of payload type `E` scheduled for a specific instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Position in global insertion order; unique per queue.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Bits per wheel level: each level has `2^6 = 64` slots.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels. Level `l` slots are `64^l` ticks wide, so the wheel
/// spans `64^6 = 2^36` microseconds (~19 hours of virtual time) before the
/// overflow list takes over.
const LEVELS: usize = 6;
/// First delta that no longer fits in the wheel.
const HORIZON: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// An entry stored inside the wheel, ordered by `(tick, seq)`.
#[derive(Debug, Clone)]
struct WheelEntry<E> {
    /// Firing tick in microseconds (`SimTime::as_micros`).
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for WheelEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for WheelEntry<E> {}
impl<E> PartialOrd for WheelEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for WheelEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The wheel level for an entry `delta` ticks in the future.
fn level_for(delta: u64) -> usize {
    debug_assert!(delta < HORIZON);
    if delta == 0 {
        return 0;
    }
    ((63 - delta.leading_zeros()) / LEVEL_BITS) as usize
}

/// A priority queue of events ordered by `(time, insertion sequence)`,
/// implemented as a hierarchical timing wheel.
///
/// # Structure
///
/// * Six levels of 64 slots; a level-`l` slot covers `64^l` microsecond
///   ticks. An entry `delta` ticks ahead of the cursor lives at level
///   `⌊bitlen(delta)-1⌋ / 6`, slot `(tick >> 6l) & 63`.
/// * A level-0 slot therefore holds exactly one tick at a time; draining
///   it and sorting by `seq` restores exact insertion order even when
///   cascaded entries and direct inserts interleave at the same tick.
/// * Entries ≥ `64^6` ticks ahead wait in an overflow heap and are pulled
///   into the wheel once the cursor comes within range.
/// * Entries scheduled *before* the cursor wait in a small `past` heap that
///   always pops first. [`next_time`](Self::next_time) moves the cursor
///   onto the next event without popping it, so this is the
///   [`Simulator`](crate::Simulator)'s path too: `run_until` peeks an
///   event past its deadline and returns, and a driver `send` or
///   `set_timer` due before that event then lands behind the cursor.
///
/// # Example
///
/// ```
/// use tao_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "late");
/// q.schedule(SimTime::from_micros(10), "early");
/// q.schedule(SimTime::from_micros(10), "early-but-second");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-but-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; level `l` slot `s` lives at
    /// `l * SLOTS + s`.
    slots: Vec<Vec<WheelEntry<E>>>,
    /// Per-level occupancy bitmask: bit `s` set iff slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// The drained active tick, sorted by `seq`, consumed from the front.
    current: VecDeque<WheelEntry<E>>,
    /// Tick of the entries in `current` (meaningless when it is empty).
    current_tick: u64,
    /// Entries scheduled behind the cursor; always pop before the wheel.
    past: BinaryHeap<Reverse<WheelEntry<E>>>,
    /// Entries beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<WheelEntry<E>>>,
    /// Lower bound (in ticks) for every wheel/overflow entry.
    cursor: u64,
    next_seq: u64,
    /// Live (scheduled, not yet popped) entry count.
    live: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            current: VecDeque::new(),
            current_tick: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`; returns its sequence number.
    // tao-lint: allow(panic-reachability, reason = "slot index is level*64+slot with slot = tick & 63, always in bounds by construction")
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.place(WheelEntry {
            at: at.as_micros(),
            seq,
            event,
        });
        seq
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "slot index is level*64+slot with slot = tick & 63, always in bounds by construction")
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.live == 0 {
            return None;
        }
        let e = match self.past.pop() {
            Some(Reverse(e)) => e,
            None => {
                if !self.refill() {
                    debug_assert_eq!(self.live, 0, "live entries but nothing to drain");
                    return None;
                }
                self.current.pop_front()?
            }
        };
        self.live -= 1;
        Some(ScheduledEvent {
            at: SimTime::from_micros(e.at),
            seq: e.seq,
            event: e.event,
        })
    }

    /// The instant of the earliest pending event, advancing internal
    /// bookkeeping (cascades) as needed. Amortized O(1).
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "slot index is level*64+slot with slot = tick & 63, always in bounds by construction")
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if let Some(Reverse(e)) = self.past.peek() {
            return Some(SimTime::from_micros(e.at));
        }
        if !self.refill() {
            debug_assert_eq!(self.live, 0, "live entries but nothing to drain");
            return None;
        }
        self.current.front().map(|e| SimTime::from_micros(e.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Routes an entry into `past`, `current`, a wheel slot, or `overflow`.
    fn place(&mut self, e: WheelEntry<E>) {
        if e.at < self.cursor {
            self.past.push(Reverse(e));
            return;
        }
        if !self.current.is_empty() && e.at == self.current_tick {
            // `seq` is globally monotone, so appending keeps `current` sorted.
            self.current.push_back(e);
            return;
        }
        let delta = e.at - self.cursor;
        if delta >= HORIZON {
            self.overflow.push(Reverse(e));
            return;
        }
        let level = level_for(delta);
        // tao-lint: allow(arith-safety, reason = "level < LEVELS (a one-digit constant) by level_for's construction, so the u32 cast cannot truncate")
        let shift = LEVEL_BITS * level as u32;
        let slot = ((e.at >> shift) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        // tao-lint: allow(arith-safety, reason = "level < LEVELS and slot = tick & 63 < SLOTS, so level*SLOTS+slot < slots.len() by construction — the same invariant the panic-reachability waiver on pop() records")
        self.slots[level * SLOTS + slot].push(e);
    }

    /// Ensures `current` holds the next tick's entries (sorted by `seq`),
    /// cascading higher-level slots and pulling overflow entries as the
    /// cursor advances. Returns `false` iff the wheel, overflow list and
    /// `current` are all empty.
    fn refill(&mut self) -> bool {
        loop {
            if !self.current.is_empty() {
                return true;
            }
            let w0 = self.cursor & !(SLOTS as u64 - 1);
            let idx0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            // Pull overflow entries that have come within the active
            // level-0 window; they compete with resident slots for the
            // next tick. (`w0 + 64` can only overflow in the last window
            // before `u64::MAX`, where every overflow entry qualifies.)
            let w0_end = w0.checked_add(SLOTS as u64);
            while let Some(Reverse(head)) = self.overflow.peek() {
                if w0_end.is_some_and(|end| head.at >= end) {
                    break;
                }
                if let Some(Reverse(e)) = self.overflow.pop() {
                    self.place(e);
                }
            }
            // Cascade any occupied slot whose window contains the cursor:
            // stale entries there (placed when the cursor was further away,
            // so their delta has since shrunk below the level's span) can
            // fire before anything the level-0 scan sees. Entries belonging
            // to the slot's *next* lap stay put. Highest level first, so an
            // entry cascading into a lower ambiguous slot is caught in the
            // same sweep.
            for l in (1..LEVELS).rev() {
                // tao-lint: allow(arith-safety, reason = "l < LEVELS (a one-digit constant), so the u32 cast cannot truncate")
                let shift = LEVEL_BITS * l as u32;
                let idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
                if self.occupied[l] & (1u64 << idx) == 0 {
                    continue;
                }
                let w = 1u64 << shift;
                // End of the slot's current-lap window; `None` means the
                // window runs to `u64::MAX`, so every entry is current-lap.
                let window_end = (self.cursor & !(w - 1)).checked_add(w);
                let i = l * SLOTS + idx;
                let mut j = 0;
                while j < self.slots[i].len() {
                    if window_end.is_none_or(|end| self.slots[i][j].at < end) {
                        let e = self.slots[i].swap_remove(j);
                        self.place(e);
                    } else {
                        j += 1;
                    }
                }
                if self.slots[i].is_empty() {
                    self.occupied[l] &= !(1u64 << idx);
                }
            }
            // Earliest occupied level-0 slot in the active window is the
            // next tick: every other candidate lives in a later window.
            let this_window = self.occupied[0] & (!0u64 << idx0);
            if this_window != 0 {
                let s = this_window.trailing_zeros() as usize;
                let tick = w0 + s as u64;
                self.occupied[0] &= !(1u64 << s);
                let mut drained = std::mem::take(&mut self.slots[s]);
                self.current.extend(drained.drain(..));
                self.slots[s] = drained; // keep the slot's allocation
                self.current
                    .make_contiguous()
                    .sort_unstable_by_key(|e| e.seq);
                self.current_tick = tick;
                self.cursor = tick;
                return true;
            }
            // No tick left in the active window: advance the cursor to the
            // earliest upcoming window. Candidates are scanned highest
            // level first so that on equal window starts the outer slot
            // cascades before an inner slot is drained — entries in the
            // outer slot may share the very tick the inner slot holds.
            let mut best: Option<(u64, Option<(usize, usize)>)> = None;
            for l in (1..LEVELS).rev() {
                let occ = self.occupied[l];
                if occ == 0 {
                    continue;
                }
                let shift = LEVEL_BITS * l as u32;
                let w = 1u64 << shift;
                let span = w << LEVEL_BITS;
                let idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let base = self.cursor & !(span - 1);
                let this_lap = if idx >= 63 {
                    0
                } else {
                    occ & (!0u64 << (idx + 1))
                };
                let (s, start) = if this_lap != 0 {
                    let s = this_lap.trailing_zeros() as u64;
                    (s, base + s * w)
                } else {
                    // occ != 0 and no bit above idx, so bits ≤ idx exist.
                    let s = (occ & (!0u64 >> (63 - idx))).trailing_zeros() as u64;
                    (s, base + span + s * w)
                };
                if best.is_none_or(|(b, _)| start < b) {
                    best = Some((start, Some((l, s as usize))));
                }
            }
            // Level-0 next lap: slots below the cursor index hold ticks in
            // the following window.
            let next_lap0 = self.occupied[0] & !(!0u64 << idx0);
            if next_lap0 != 0 {
                let s = next_lap0.trailing_zeros() as u64;
                let start = w0 + SLOTS as u64 + s;
                if best.is_none_or(|(b, _)| start < b) {
                    best = Some((start, None));
                }
            }
            if let Some(Reverse(head)) = self.overflow.peek() {
                if best.is_none_or(|(b, _)| head.at < b) {
                    best = Some((head.at, None));
                }
            }
            match best {
                None => return false,
                Some((start, None)) => self.cursor = start,
                Some((start, Some((l, s)))) => {
                    // Enter the slot's window and cascade its entries down
                    // (each is now < 64^l ticks ahead, so lands at < l).
                    self.cursor = start;
                    self.occupied[l] &= !(1u64 << s);
                    // tao-lint: allow(arith-safety, reason = "l < LEVELS and s < SLOTS (a trailing_zeros of a 64-bit occupancy word), so l*SLOTS+s < slots.len() by construction")
                    let mut drained = std::mem::take(&mut self.slots[l * SLOTS + s]);
                    for e in drained.drain(..) {
                        self.place(e);
                    }
                    self.slots[l * SLOTS + s] = drained;
                }
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::properties::HeapQueue;
    use super::*;

    impl<E> EventQueue<E> {
        /// The instant of the earliest pending event, read without moving
        /// the cursor: an O(n) scan of every resident, the oracle for
        /// [`EventQueue::next_time`].
        fn peek_time(&self) -> Option<SimTime> {
            let heaps = self
                .past
                .iter()
                .chain(self.overflow.iter())
                .map(|Reverse(e)| e);
            let wheel = self.current.iter().chain(self.slots.iter().flatten());
            heaps
                .chain(wheel)
                .map(|e| e.at)
                .min()
                .map(SimTime::from_micros)
        }
    }

    #[test]
    fn orders_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), 'b');
        q.schedule(SimTime::from_micros(1), 'a');
        q.schedule(SimTime::from_micros(5), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.next_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.pop().unwrap().at, SimTime::from_micros(7));
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ORIGIN, 1);
        q.schedule(SimTime::ORIGIN, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let s0 = q.schedule(SimTime::ORIGIN, ());
        let s1 = q.schedule(SimTime::ORIGIN, ());
        assert!(s1 > s0);
    }

    #[test]
    fn large_interleaved_workload_stays_sorted() {
        let mut q = EventQueue::new();
        // Insert times in a scrambled deterministic pattern.
        for i in 0u64..1_000 {
            q.schedule(SimTime::from_micros((i * 7919) % 257), i);
        }
        let mut last = (SimTime::ORIGIN, 0u64);
        while let Some(e) = q.pop() {
            assert!((e.at, e.seq) >= last, "wheel order violated");
            last = (e.at, e.seq);
        }
    }

    #[test]
    fn level_boundaries_round_trip() {
        // Deltas straddling every level boundary, plus the overflow horizon.
        let deltas = [
            0u64,
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            4_097,
            (1 << 18) - 1,
            1 << 18,
            (1 << 24) - 1,
            1 << 24,
            (1 << 30) - 1,
            1 << 30,
            HORIZON - 1,
            HORIZON,
            HORIZON + 1,
            HORIZON * 3 + 17,
        ];
        let mut q = EventQueue::new();
        for (i, &d) in deltas.iter().enumerate() {
            q.schedule(SimTime::from_micros(d), i);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e.at.as_micros());
        }
        let mut want = deltas.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn cascaded_and_direct_inserts_share_a_tick_in_seq_order() {
        let mut q = EventQueue::new();
        // A lands at level 1 (delta 100 from cursor 0); after popping B the
        // cursor is 50 and C lands directly at level 0 for the same tick.
        let a = q.schedule(SimTime::from_micros(100), "cascaded");
        q.schedule(SimTime::from_micros(50), "first");
        let c_at = SimTime::from_micros(100);
        assert_eq!(q.pop().unwrap().event, "first");
        let c = q.schedule(c_at, "direct");
        assert!(c > a);
        assert_eq!(q.pop().unwrap().event, "cascaded");
        assert_eq!(q.pop().unwrap().event, "direct");
    }

    #[test]
    fn scheduling_behind_the_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_000), "late");
        assert_eq!(q.pop().unwrap().event, "late");
        // The queue's clock floor is now 1000; 5 is "in the past".
        q.schedule(SimTime::from_micros(5), "past");
        q.schedule(SimTime::from_micros(2_000), "future");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().unwrap().event, "past");
        assert_eq!(q.pop().unwrap().event, "future");
    }

    #[test]
    fn heap_queue_matches_basic_semantics() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::from_micros(5), 'b');
        q.schedule(SimTime::from_micros(1), 'a');
        q.schedule(SimTime::from_micros(5), 'c');
        assert_eq!(q.next_time(), Some(SimTime::from_micros(1)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert!(q.is_empty());
    }

    #[test]
    fn times_near_u64_max_do_not_wrap() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "max");
        q.schedule(SimTime::from_micros(u64::MAX - 1), "almost");
        q.schedule(SimTime::from_micros(3), "now");
        assert_eq!(q.pop().unwrap().event, "now");
        assert_eq!(q.pop().unwrap().event, "almost");
        assert_eq!(q.pop().unwrap().event, "max");
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use tao_util::check::for_all;
    use tao_util::rand::Rng;
    use tao_util::{check, check_eq};

    /// The original `BinaryHeap`-backed queue, kept as the determinism oracle
    /// for [`EventQueue`]: the property test below drives both with identical
    /// random schedules and requires identical pop sequences. O(log n)
    /// schedule/pop.
    pub(super) struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<WheelEntry<E>>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        pub(super) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub(super) fn schedule(&mut self, at: SimTime, event: E) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(WheelEntry {
                at: at.as_micros(),
                seq,
                event,
            }));
            seq
        }

        pub(super) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let Reverse(e) = self.heap.pop()?;
            Some(ScheduledEvent {
                at: SimTime::from_micros(e.at),
                seq: e.seq,
                event: e.event,
            })
        }

        pub(super) fn next_time(&self) -> Option<SimTime> {
            self.heap
                .peek()
                .map(|Reverse(e)| SimTime::from_micros(e.at))
        }

        pub(super) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(super) fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    /// The wheel and the heap oracle, driven by identical random command
    /// streams (schedules across every level and the overflow horizon,
    /// same-tick bursts, pops, peeks), must agree on every observable: pop
    /// order and payloads, lengths, and next-event times. This is the
    /// contract that keeps replay fingerprints byte-identical across the
    /// queue swap.
    #[test]
    fn wheel_matches_heap_on_random_schedules() {
        for_all("wheel_matches_heap_on_random_schedules", 192, |rng| {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            for _ in 0..rng.gen_range(1usize..150) {
                match rng.gen_range(0u8..10) {
                    0..=5 => {
                        let t = match rng.gen_range(0u8..4) {
                            0 => rng.gen_range(0u64..200), // same-tick bursts
                            1 => rng.gen_range(0u64..1 << 20),
                            2 => rng.gen_range(0u64..1 << 38), // beyond horizon
                            _ => u64::MAX - rng.gen_range(0u64..1 << 37),
                        };
                        let at = SimTime::from_micros(t);
                        let payload = rng.gen::<u32>();
                        check_eq!(wheel.schedule(at, payload), heap.schedule(at, payload));
                    }
                    6..=7 => check_eq!(wheel.pop(), heap.pop()),
                    _ => check_eq!(wheel.next_time(), heap.next_time()),
                }
                check_eq!(wheel.len(), heap.len());
            }
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                check_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        });
    }

    /// Dense bursts: many events per tick across adjacent ticks exercise
    /// the slot-drain seq sort and the current-tick append path.
    #[test]
    fn same_tick_bursts_pop_in_insertion_order() {
        for_all("same_tick_bursts_pop_in_insertion_order", 64, |rng| {
            let mut q = EventQueue::new();
            let base = rng.gen_range(0u64..1 << 30);
            let n = rng.gen_range(10usize..300);
            for i in 0..n {
                let t = base + rng.gen_range(0u64..4);
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut last = (SimTime::ORIGIN, 0u64);
            let mut count = 0;
            while let Some(e) = q.pop() {
                check!(
                    (e.at, e.seq) > last || count == 0,
                    "pop order regressed at {:?}",
                    (e.at, e.seq)
                );
                last = (e.at, e.seq);
                count += 1;
            }
            check_eq!(count, n);
        });
    }
}
