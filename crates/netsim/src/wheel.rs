//! A hierarchical timing wheel over the whole `u64` clock.
//!
//! The simulator's event core: a min-priority queue over `(time, seq)`
//! where `seq` is the insertion sequence, so equal-timestamp entries pop
//! in the order they were pushed — the determinism invariant every
//! experiment CSV depends on. A binary heap gives that contract at
//! O(log n) per operation; the wheel gives it at amortised O(1) for the
//! near-future traffic that dominates a discrete-event run (frame
//! deliveries a few microseconds out, resolver retries a second out),
//! which is what lets one simulation scale to 10^5 hosts.
//!
//! # Shape
//!
//! Time is cut into 1,024 ns windows (`at >> 10`), and nine levels of 64
//! slots index those windows: a level-0 slot is one window and level `l`
//! spans `64^(l+1)` windows. Nine 6-bit digits are all 54 bits of a
//! window number, so every timestamp up to [`SimTime::MAX`] has a slot
//! and the wheel has no horizon. A frame delivery microseconds out is
//! queued on level 0 directly, and a 2 s refresh timer cascades three
//! times. An entry's level is the highest 6-bit digit in which its
//! window differs from `anchor` (the window it last drained; the
//! `timeout.c` trick): that digit is the entry's slot, every higher
//! digit matches `anchor`, so occupied slots always sit *ahead* of the
//! level's cursor within the current epoch, a single `rotate_right` +
//! `trailing_zeros` finds the next one, and every entry on a level sorts
//! after every entry on the levels below it.
//!
//! # Storage
//!
//! Entries live in one index-addressed node arena; each slot is a chain
//! threaded through `u32` links from its head, and spent nodes go on a
//! free list inside the same arena. Pushing, cascading, and popping
//! therefore allocate nothing once the arena has grown to the run's
//! in-flight high-water mark — the allocation floors in
//! `tests/alloc_floors.rs` hold the whole simulator to a fraction of an
//! allocation per frame. A chain is unordered: a push links at its
//! head, a cascade relinks every node it moves, and a level-0 drain
//! sorts its window by `(at, seq)`.
//!
//! # Advancing
//!
//! The wheel only moves when a pop finds the ready batch empty: it
//! takes the next occupied slot of the lowest occupied level, moves
//! `anchor` to that slot's first window, and either drains it (level 0,
//! one window) into `ready` sorted by `(time, seq)`, or cascades its
//! chain down a level and repeats. A slot holding a single entry, on
//! any level, holds the next entry due: it goes straight to `ready` and
//! `anchor` moves to its window, where the cascades would have left it
//! without relinking it once per level. Every pending entry in a window
//! at or before `anchor` is in `ready`, so a push into such a window — a
//! sub-microsecond delay, or any push after a `pop_until` that fell
//! short of the next entry but ran the wheel ahead of the clock — merges
//! into `ready` after the last entry due no later than it (usually at
//! the back), and still pops after every pending equal-timestamp entry.

use std::collections::VecDeque;

use arpshield_trace::profile;

use crate::time::SimTime;

/// log2 of a level-0 slot's width in nanoseconds.
const WINDOW_BITS: u32 = 10;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels: one per 6-bit digit of a `u64` timestamp's window.
const LEVELS: usize = (u64::BITS - WINDOW_BITS).div_ceil(LEVEL_BITS) as usize;
/// Null link for slot chains and the node free list.
const NIL: u32 = u32::MAX;

/// An arena node: either a pending entry on a slot chain or in `ready`,
/// or a spent one on the free list (`item` taken).
#[derive(Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// A deterministic timer queue: entries pop in `(time, insertion)` order.
///
/// Pushing a timestamp earlier than the last popped one is clamped to
/// it — the discrete-event contract schedules at `now + delay`, so the
/// clamp only defends against misuse, it never fires in the simulator.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Time of the most recently popped entry: a lower bound on every
    /// pending timestamp.
    now: u64,
    /// The window (`at >> WINDOW_BITS`) slot digits are measured
    /// against. Pending entries in windows up to it are in `ready`;
    /// slot entries are all in later windows.
    anchor: u64,
    /// Next insertion sequence number.
    seq: u64,
    /// Entries resident in wheel slots (excludes `ready`).
    wheel_len: usize,
    /// Node arena; slot chains and the free list both live here.
    nodes: Vec<Node<T>>,
    /// Head of the spent-node free list.
    free: u32,
    /// Chain head per slot, level-major; [`NIL`] when empty.
    head: [u32; LEVELS * SLOTS],
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// The due batch: node indices in `(at, seq)` order.
    ready: VecDeque<u32>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel anchored at time zero.
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            anchor: 0,
            seq: 0,
            wheel_len: 0,
            nodes: Vec::new(),
            free: NIL,
            head: [NIL; LEVELS * SLOTS],
            occ: [0; LEVELS],
            ready: VecDeque::new(),
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.wheel_len + self.ready.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at `at`. Entries pushed with equal timestamps
    /// pop in push order.
    #[inline]
    pub fn push(&mut self, at: SimTime, item: T) {
        let at = at.as_nanos().max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let node = match self.free {
            NIL => {
                self.nodes.push(Node { at, seq, next: NIL, item: Some(item) });
                (self.nodes.len() - 1) as u32
            }
            idx => {
                let node = &mut self.nodes[idx as usize];
                self.free = node.next;
                node.at = at;
                node.seq = seq;
                node.item = Some(item);
                idx
            }
        };
        if at >> WINDOW_BITS > self.anchor {
            self.link(node);
            self.wheel_len += 1;
        } else {
            // Already drained: merge after every entry due no later.
            match self.ready.back() {
                Some(&last) if self.nodes[last as usize].at > at => {
                    let nodes = &self.nodes;
                    let pos = self.ready.partition_point(|&n| nodes[n as usize].at <= at);
                    self.ready.insert(pos, node);
                }
                _ => self.ready.push_back(node),
            }
        }
    }

    /// Removes and returns the next entry in `(time, insertion)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the next entry if it is due by `deadline`, else `None`.
    #[inline]
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let _s = profile::span("wheel.pop");
        if self.ready.is_empty() {
            self.pump();
        }
        let &index = self.ready.front()?;
        let node = &mut self.nodes[index as usize];
        if node.at > deadline.as_nanos() {
            return None;
        }
        self.ready.pop_front();
        let item = node.item.take().expect("ready nodes hold their item");
        node.next = self.free;
        self.free = index;
        self.now = node.at;
        Some((SimTime::from_nanos(node.at), item))
    }

    /// Links a slot node onto the chain its window and the current
    /// `anchor` hash to.
    fn link(&mut self, index: u32) {
        let window = self.nodes[index as usize].at >> WINDOW_BITS;
        debug_assert!(window >= self.anchor);
        let level = (((window ^ self.anchor) | 1).ilog2() / LEVEL_BITS) as usize;
        let shift = LEVEL_BITS * level as u32;
        let slot = ((window >> shift) & (SLOTS as u64 - 1)) as usize;
        let chain = level * SLOTS + slot;
        self.nodes[index as usize].next = self.head[chain];
        self.head[chain] = index;
        self.occ[level] |= 1 << slot;
    }

    /// Advances `anchor` to the next occupied slot and fills `ready`
    /// with its window's entries, cascading wider slots down a level on
    /// the way. Leaves `ready` empty only when the wheel is empty.
    fn pump(&mut self) {
        while self.ready.is_empty() && self.wheel_len > 0 {
            let level = self.occ.iter().position(|&o| o != 0).expect("wheel_len > 0");
            let shift = LEVEL_BITS * level as u32;
            let cursor = ((self.anchor >> shift) & (SLOTS as u64 - 1)) as u32;
            let dist = self.occ[level].rotate_right(cursor).trailing_zeros() as u64;
            self.anchor = ((self.anchor >> shift) + dist) << shift;
            let slot = ((self.anchor >> shift) & (SLOTS as u64 - 1)) as usize;
            self.occ[level] &= !(1u64 << slot);
            let mut node = std::mem::replace(&mut self.head[level * SLOTS + slot], NIL);
            if self.nodes[node as usize].next == NIL {
                // A lone entry: every lower level is empty and this is
                // the level's first occupied slot, so it is due next.
                self.anchor = self.nodes[node as usize].at >> WINDOW_BITS;
                self.ready.push_back(node);
                self.wheel_len -= 1;
            } else if level == 0 {
                while node != NIL {
                    self.ready.push_back(node);
                    node = self.nodes[node as usize].next;
                }
                self.wheel_len -= self.ready.len();
                let nodes = &self.nodes;
                self.ready
                    .make_contiguous()
                    .sort_unstable_by_key(|&n| (nodes[n as usize].at, nodes[n as usize].seq));
            } else {
                let _s = profile::span("wheel.cascade");
                while node != NIL {
                    let next = self.nodes[node as usize].next;
                    self.link(node);
                    node = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    fn drain(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| wheel.pop()).map(|(at, item)| (at.as_nanos(), item)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut wheel = TimingWheel::new();
        for (at, item) in [(500u64, 0u32), (3, 1), (70_000, 2), (64, 3), (4096, 4)] {
            wheel.push(SimTime::from_nanos(at), item);
        }
        assert_eq!(wheel.len(), 5);
        assert_eq!(drain(&mut wheel), vec![(3, 1), (64, 3), (500, 0), (4096, 4), (70_000, 2)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn equal_timestamps_pop_in_insertion_order() {
        let mut wheel = TimingWheel::new();
        for item in 0..100u32 {
            wheel.push(SimTime::from_nanos(1_000_000), item);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| wheel.pop()).map(|(_, i)| i).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_entries_interleave_with_near_ones() {
        let mut wheel = TimingWheel::new();
        // Day-scale timestamps sit six levels up.
        wheel.push(SimTime::from_secs(86_400), 0);
        wheel.push(SimTime::from_nanos(5), 1);
        wheel.push(SimTime::from_secs(86_400), 2);
        wheel.push(SimTime::from_secs(100), 3);
        assert_eq!(
            drain(&mut wheel),
            vec![(5, 1), (100_000_000_000, 3), (86_400_000_000_000, 0), (86_400_000_000_000, 2)]
        );
    }

    #[test]
    fn equal_timestamp_order_holds_across_levels() {
        let mut wheel = TimingWheel::new();
        let t = SimTime::from_secs(86_400);
        wheel.push(t, 0); // six levels up
        wheel.push(SimTime::from_secs(86_399), 1);
        // Pop the near entry; anchor now sits within a second of the
        // first entry, so this push lands on a lower level.
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(86_399), 1)));
        wheel.push(t, 2);
        assert_eq!(drain(&mut wheel), vec![(t.as_nanos(), 0), (t.as_nanos(), 2)]);
    }

    #[test]
    fn push_during_drain_of_same_timestamp_pops_last() {
        let mut wheel = TimingWheel::new();
        let t = SimTime::from_nanos(4095);
        wheel.push(t, 0);
        wheel.push(t, 1);
        assert_eq!(wheel.pop(), Some((t, 0)));
        wheel.push(t, 2); // at == anchor while the batch is mid-drain
        assert_eq!(drain(&mut wheel), vec![(4095, 1), (4095, 2)]);
    }

    #[test]
    fn earlier_than_anchor_pushes_clamp_forward() {
        let mut wheel = TimingWheel::new();
        wheel.push(SimTime::from_nanos(1000), 0);
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(1000), 0)));
        wheel.push(SimTime::from_nanos(10), 1);
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(1000), 1)));
    }

    #[test]
    fn pushes_after_a_short_pop_until_keep_their_time() {
        let mut wheel = TimingWheel::new();
        wheel.push(SimTime::from_nanos(5000), 0);
        // The call drains 5000's window but pops nothing; the clock is
        // still at zero.
        assert_eq!(wheel.pop_until(SimTime::from_nanos(4999)), None);
        wheel.push(SimTime::from_nanos(100), 1);
        wheel.push(SimTime::from_nanos(4500), 2);
        wheel.push(SimTime::from_nanos(5000), 3);
        assert_eq!(drain(&mut wheel), vec![(100, 1), (4500, 2), (5000, 0), (5000, 3)]);
    }

    #[test]
    fn pop_until_leaves_entries_past_its_deadline_in_order() {
        let mut wheel = TimingWheel::new();
        assert_eq!(wheel.pop_until(SimTime::MAX), None);
        wheel.push(SimTime::from_secs(300), 0); // four levels up
        wheel.push(SimTime::from_nanos(77), 1);
        assert_eq!(wheel.pop_until(SimTime::from_nanos(76)), None);
        assert_eq!(wheel.pop_until(SimTime::from_nanos(77)), Some((SimTime::from_nanos(77), 1)));
        assert_eq!(wheel.pop_until(SimTime::from_secs(299)), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_until(SimTime::from_secs(300)), Some((SimTime::from_secs(300), 0)));
        assert_eq!(wheel.pop_until(SimTime::MAX), None);
        assert!(wheel.is_empty());
    }

    /// `wheel.cascade` spans recorded while `run` drives a wheel under
    /// an installed profiler.
    fn cascades(run: impl FnOnce(&mut TimingWheel<u32>)) -> u64 {
        use std::sync::Arc;

        use arpshield_trace::profile::ProfileCollector;

        let collector = Arc::new(ProfileCollector::new());
        {
            let _installed = profile::install(collector.clone());
            run(&mut TimingWheel::new());
        }
        let spans = collector.snapshot().spans;
        spans.iter().filter(|(path, _)| path.ends_with("wheel.cascade")).map(|(_, s)| s.count).sum()
    }

    #[test]
    fn a_lone_entry_pops_from_any_level_without_a_cascade() {
        let cascaded = cascades(|wheel| {
            // One entry on each of levels 1-8, measured from anchor 0,
            // pushed highest first; each stays alone in its slot.
            let times: Vec<u64> =
                (1..LEVELS as u32).map(|l| (1 << (WINDOW_BITS + LEVEL_BITS * l)) + 777).collect();
            for (item, &at) in times.iter().enumerate().rev() {
                wheel.push(SimTime::from_nanos(at), item as u32);
            }
            for (item, &at) in times.iter().enumerate() {
                assert_eq!(wheel.pop(), Some((SimTime::from_nanos(at), item as u32)));
                // The wheel now sits at the entry's window: a push a
                // microsecond on pops before the next level's entry.
                wheel.push(SimTime::from_nanos(at + 1_000), 99);
                assert_eq!(wheel.pop(), Some((SimTime::from_nanos(at + 1_000), 99)));
            }
            assert!(wheel.is_empty());
        });
        assert_eq!(cascaded, 0);

        // Two entries in one level-2 slot, in different level-1 slots:
        // one cascade splits them, and each then pops alone.
        let cascaded = cascades(|wheel| {
            let (a, b) = ((1 << 22) + (2 << 16), (1 << 22) + (1 << 16));
            wheel.push(SimTime::from_nanos(a), 0);
            wheel.push(SimTime::from_nanos(b), 1);
            assert_eq!(drain(wheel), vec![(b, 1), (a, 0)]);
        });
        assert_eq!(cascaded, 1);
    }

    #[test]
    fn spent_nodes_are_reused_instead_of_growing_the_arena() {
        let mut wheel = TimingWheel::new();
        for round in 0..1000u64 {
            wheel.push(SimTime::from_nanos(round * 17 + 1), round as u32);
            wheel.pop();
        }
        assert!(wheel.nodes.len() <= 2, "arena grew to {} nodes", wheel.nodes.len());
    }

    #[test]
    fn matches_binary_heap_reference_on_random_streams() {
        let mut state = 0x8BAD_F00D_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut short_deadlines = 0;
        for round in 0..50 {
            let mut queues = Lockstep::new(format!("round {round}"));
            for op in 0..400 {
                let clock = queues.reference.now;
                if op % 5 == 3 {
                    queues.pop();
                    continue;
                }
                if op % 5 == 1 {
                    // A deadline from the clock to twice the next entry's
                    // distance, so about half fall short of it. Those
                    // pump the wheel ahead to its window; pushes before
                    // that window follow.
                    let Some(front) = queues.reference.front() else { continue };
                    let deadline =
                        clock.saturating_add(next() % (front - clock).saturating_mul(2).max(1));
                    if queues.pop_until(deadline).is_none() {
                        short_deadlines += 1;
                        for k in 1..=1 + next() % 3 {
                            queues.push(clock + next() % (front - clock), op << 2 | k as u32);
                        }
                    }
                    continue;
                }
                // Microsecond-scale to second-scale delays, day-long
                // ones, jumps of any size up to the top of the clock, and
                // the top itself.
                let at = match next() % 8 {
                    0 => clock.saturating_add(86_400_000_000_000 + next() % 1_000_000),
                    1 => clock.saturating_add(next() << (next() % 34)),
                    2 if round % 5 == 4 => u64::MAX,
                    _ => clock.saturating_add(next() % (1 << (10 + round % 20))),
                };
                queues.push(at, op << 2);
            }
            while queues.pop().is_some() {}
        }
        assert!(short_deadlines > 0, "no deadline fell short of a pending entry");

        // The simulator's own load at full size, where every pop pushes
        // its successor. Hold-model churn keeps 4,096 entries a link
        // latency ahead, so equal-timestamp batches dominate;
        // `mixed_horizon` sends one push in 16 a day out.
        const LATENCIES: [u64; 4] = [1_000, 5_000, 10_000, 25_000];
        for (shape, far_tail) in [("steady_churn", false), ("mixed_horizon", true)] {
            let mut delay = || match next() {
                r if far_tail && r % 16 == 0 => 86_400_000_000_000 + r % 1_000_000_000,
                r => LATENCIES[(r % 4) as usize],
            };
            let mut queues = Lockstep::new(shape.to_string());
            for item in 0..4096 {
                queues.push(delay(), item);
            }
            for item in 0..65_536 {
                let (at, _) = queues.pop().expect("the queue stays full");
                queues.push(at + delay(), item);
            }
            while queues.pop().is_some() {}
        }
        // The 100k-station fabric: one refresh timer per station pending
        // up to 2 s ahead. A timer's pop sends a frame 5 or 10 µs out,
        // each delivery pushes the next hop the same way, and the third
        // hop re-arms the timer. Item `4 * station + hop` is one step.
        // The run advances in 1 ms chunks, as `Simulator::run_until`
        // does, so each chunk ends on a deadline short of the next entry.
        const REFRESH: u64 = 2_000_000_000;
        let mut queues = Lockstep::new("scale_timers".to_string());
        for station in 0..100_000u32 {
            queues.push(next() % REFRESH, 4 * station);
        }
        let mut deadline = 0;
        while queues.pops < 400_000 {
            deadline += 1_000_000;
            while let Some((at, item)) = queues.pop_until(deadline) {
                match item % 4 {
                    3 => queues.push(at + REFRESH, item - 3),
                    _ => queues.push(at + [5_000, 10_000][(next() % 2) as usize], item + 1),
                }
            }
        }
        while queues.pop().is_some() {}
    }

    /// A wheel and the reference heap fed the same pushes, whose every
    /// pop, entry or `None`, and every length after it must agree.
    struct Lockstep {
        stream: String,
        wheel: TimingWheel<u32>,
        reference: Reference,
        pops: usize,
    }

    impl Lockstep {
        fn new(stream: String) -> Self {
            Lockstep { stream, wheel: TimingWheel::new(), reference: Reference::default(), pops: 0 }
        }
        fn push(&mut self, at: u64, item: u32) {
            self.wheel.push(SimTime::from_nanos(at), item);
            self.reference.push(at, item);
        }
        fn pop(&mut self) -> Option<(u64, u32)> {
            let got = self.wheel.pop().map(|(at, item)| (at.as_nanos(), item));
            self.check(got, u64::MAX)
        }
        fn pop_until(&mut self, deadline: u64) -> Option<(u64, u32)> {
            let got = self.wheel.pop_until(SimTime::from_nanos(deadline));
            self.check(got.map(|(at, item)| (at.as_nanos(), item)), deadline)
        }
        fn check(&mut self, got: Option<(u64, u32)>, deadline: u64) -> Option<(u64, u32)> {
            let (stream, pops) = (&self.stream, self.pops);
            let want = self.reference.pop_until(deadline);
            assert_eq!(got, want, "{stream}: pop {pops} until {deadline}");
            assert_eq!(self.wheel.len(), self.reference.heap.len(), "{stream}: len after {pops}");
            self.pops += 1;
            got
        }
    }

    /// The contract the wheel documents: a heap on `(at, seq)` whose
    /// pushes clamp to the last popped time.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
        now: u64,
    }

    impl Reference {
        fn push(&mut self, at: u64, item: u32) {
            self.heap.push(Reverse((at.max(self.now), self.seq, item)));
            self.seq += 1;
        }
        fn front(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }
        fn pop(&mut self) -> Option<(u64, u32)> {
            self.pop_until(u64::MAX)
        }
        fn pop_until(&mut self, deadline: u64) -> Option<(u64, u32)> {
            if self.front()? > deadline {
                return None;
            }
            let Reverse((at, _, item)) = self.heap.pop()?;
            self.now = at;
            Some((at, item))
        }
    }

    /// Streams that stress window merges: sub-window delays landing
    /// before and after the drained window's last entry, ties either
    /// side of a window edge, pushes after a `pop_until` whose deadline
    /// fell short (the end of a `run_until` chunk), day-long entries
    /// whose window the wheel later drains around them, jumps up to the
    /// top of the clock, and pushes after [`SimTime::MAX`] has popped,
    /// which clamp to it.
    #[test]
    fn window_merges_match_a_reference_heap() {
        const WINDOW: u64 = 1 << WINDOW_BITS;
        const DAY: u64 = 86_400_000_000_000;
        let mut state = 0x0DD_B1A5_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut pushes_after_max = 0;
        for round in 0..40 {
            let mut wheel = TimingWheel::new();
            let mut reference = Reference::default();
            let mut far_times = Vec::new();
            let mut item = 0u32;
            let mut push = |wheel: &mut TimingWheel<u32>, reference: &mut Reference, at: u64| {
                pushes_after_max += u32::from(reference.now == u64::MAX);
                wheel.push(SimTime::from_nanos(at), item);
                reference.push(at, item);
                item += 1;
            };
            // Even rounds jump at most ~19.5 h; odd ones anywhere.
            let reach = if round % 2 == 0 { 16 } else { 34 };
            for op in 0..1500 {
                let clock = reference.now;
                match next() % 16 {
                    0..=3 => {
                        push(&mut wheel, &mut reference, clock.saturating_add(next() % WINDOW))
                    }
                    4 => {
                        let edge = (clock / WINDOW + 1 + next() % 2).saturating_mul(WINDOW);
                        for at in [edge - 1, edge, edge - 1, edge] {
                            push(&mut wheel, &mut reference, at);
                        }
                    }
                    5 => {
                        let deadline = clock.saturating_add(next() % (2 * WINDOW));
                        let got = wheel.pop_until(SimTime::from_nanos(deadline));
                        let got = got.map(|(at, item)| (at.as_nanos(), item));
                        let want = reference.pop_until(deadline);
                        assert_eq!(got, want, "round {round} op {op}: pop_until {deadline}");
                        for _ in 0..1 + next() % 3 {
                            let at = clock.saturating_add(next() % (3 * WINDOW));
                            push(&mut wheel, &mut reference, at);
                        }
                    }
                    6 => {
                        let at = clock.saturating_add(DAY + next() % (4 * WINDOW));
                        far_times.push(at);
                        push(&mut wheel, &mut reference, at);
                    }
                    7 => {
                        // Escort a day-long entry: a push near its time
                        // from a later anchor lands on a lower level, and
                        // the two meet in one drained window.
                        if let Some(&far) =
                            far_times.iter().find(|&&f| f.saturating_sub(clock) > WINDOW)
                        {
                            let at = (far - WINDOW / 2).saturating_add(next() % WINDOW);
                            push(&mut wheel, &mut reference, at);
                        }
                    }
                    8 => push(
                        &mut wheel,
                        &mut reference,
                        clock.saturating_add(next() << (next() % reach)),
                    ),
                    // Late, so most of the round runs below the top.
                    9 if round % 4 == 3 && op >= 1200 => push(&mut wheel, &mut reference, u64::MAX),
                    _ => {
                        for _ in 0..1 + next() % 4 {
                            let got = wheel.pop().map(|(at, item)| (at.as_nanos(), item));
                            assert_eq!(got, reference.pop(), "round {round} op {op}");
                        }
                    }
                }
                assert_eq!(wheel.len(), reference.heap.len());
            }
            loop {
                let got = wheel.pop().map(|(at, item)| (at.as_nanos(), item));
                assert_eq!(got, reference.pop(), "round {round}: drain");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(pushes_after_max > 0, "no stream popped SimTime::MAX and pushed again");
    }
}
