//! A two-level ladder (calendar) queue: the allocation-free priority queue
//! behind [`crate::EventQueue`].
//!
//! Discrete-event simulations exhibit strong *temporal locality*: nearly
//! every scheduled event fires within a short horizon of the current
//! simulated time. A binary heap ignores that structure and pays a
//! pointer-chasing sift on every operation; a ladder queue exploits it.
//! Events land in one of [`N_BUCKETS`] fixed-width time buckets covering a
//! sliding window anchored near the earliest pending event. Push appends
//! to the bucket covering the event's instant; pop drains the *active*
//! bucket front to back. Only when a bucket becomes active is it sorted —
//! a tiny, cache-resident, stable sort — so the per-event cost is O(1)
//! amortized, and after warm-up no operation allocates: buckets and the
//! overflow rung retain their capacity across rewindows.
//!
//! ## The FIFO tie-break invariant
//!
//! The pop order is **exactly** `(time, push instant, insertion sequence)`.
//! Each entry is stamped with the queue's [`LadderQueue::set_clock`] value
//! at push time (the simulation instant that *caused* the push). For a
//! single-queue simulation the clock is nondecreasing across pushes, so
//! the refined key orders identically to the classic `(time, insertion
//! sequence)` a binary heap with an explicit sequence tie-break produces —
//! which is what pins the workspace's bit-reproducible results. The extra
//! component exists for sharded execution: a shard draining boundary
//! messages inserts them with [`LadderQueue::push_at`] carrying the
//! *sender's* causal instant, which slots them exactly where the single
//! global queue would have held them. Four mechanisms guarantee the
//! order (see `DESIGN.md` §5.3/§5.4):
//!
//! 1. Appends into a pending bucket happen in push order, and activation
//!    sorts **stably by `(time, push instant)`**, so entries with equal
//!    keys keep their insertion order.
//! 2. Pushes into the already-sorted active bucket insert after every
//!    entry with `(time, push instant)` ≤ theirs (among equal keys their
//!    sequence number is by construction the largest yet issued).
//! 3. The overflow rung preserves push order, and a rewindow distributes
//!    it in that order into empty buckets — entries pushed later are
//!    appended later, so stability composes.
//! 4. Same-instant pushes — `time == push` with the event due no later
//!    than the clock, i.e. key `(t, t, seq)` — skip the buckets and go to
//!    the **lane**, a FIFO deque. The clock is monotone, so appends keep
//!    the lane sorted by `(time, seq)`. Every bucket entry at `t` has
//!    `push < t` or was pushed before the clock reached `t`, so at a tied
//!    time the buckets pop first and the lane second; `pop`,
//!    `pop_batch_into` and `peek_time` merge the two fronts by that rule.
//!
//! In a router-network simulation most pushes are wake-ups for the
//! instant already being processed, so the lane turns the common push
//! from a sorted insert into the active bucket into a `push_back`.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Buckets per window. 256 keeps the occupancy bitmap at four words while
/// spanning a window comfortably larger than the event horizon of a
/// router-network simulation.
pub const N_BUCKETS: usize = 256;

/// Default bucket width in picoseconds. Sized so that one window
/// (`N_BUCKETS * BUCKET_PS` ≈ 131 ns) covers the typical scheduling
/// horizon of link serialization (~0.5 ns), SerDes latency (2 ns), and
/// link-occupancy wakeups (tens of ns); farther events take the overflow
/// rung and cost one extra move at the next rewindow.
///
/// Since kernel v4 the width is a per-instance field — callers that know
/// their event horizon (e.g. `mn-noc`, which derives it from the
/// topology's minimum link traversal time) pass a tuned width through
/// [`LadderQueue::with_capacity_and_bucket`]. The pop order is
/// `(time, seq)` regardless of bucket geometry (see the module docs —
/// the ordering argument never references the width), so two queues with
/// different widths pop identical sequences; only the spill/rewindow
/// counters and constant factors differ.
pub const BUCKET_PS: u64 = 512;

const OCC_WORDS: usize = N_BUCKETS / 64;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    /// The causal instant of the push (the queue clock, or the sender's
    /// instant for [`LadderQueue::push_at`]); the second ordering key.
    /// The final tie-break — insertion sequence — is implicit: every
    /// path that reorders entries is stable, so push order survives.
    push: SimTime,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, SimTime) {
        (self.time, self.push)
    }
}

/// A time-ordered queue with `(time, push-instant, insertion-seq)` pop
/// order, O(1) amortized operations, and a zero-allocation steady state.
/// With the clock left at its [`SimTime::ZERO`] default the order is the
/// classic `(time, insertion-seq)`. Same-instant pushes take a FIFO lane
/// beside the buckets (see the module docs).
///
/// Pops are monotonically non-decreasing in time; pushing earlier than the
/// last popped instant is a caller logic error caught by a debug
/// assertion. See the module docs for the ordering guarantee.
///
/// # Example
///
/// ```
/// use mn_sim::{LadderQueue, SimTime};
///
/// let mut q = LadderQueue::new();
/// q.push(SimTime::from_ns(3), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// q.push(SimTime::from_ns(3), 'c'); // same instant as 'b': FIFO order
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct LadderQueue<E> {
    /// The window rung: `buckets[b]` covers
    /// `[base_ps + b*bucket_ps, base_ps + (b+1)*bucket_ps)`.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Width of each bucket in picoseconds ([`BUCKET_PS`] unless tuned at
    /// construction). Affects only constant factors and the spill
    /// counters, never the pop order.
    bucket_ps: u64,
    /// Non-empty-bucket bitmap; bit `b` set ⟺ `buckets[b]` is non-empty.
    occ: [u64; OCC_WORDS],
    /// Picosecond start of bucket 0; re-anchored when the queue empties,
    /// when a push lands before the window, and at every rewindow.
    base_ps: u64,
    /// The active bucket: sorted by `(time, seq)`, drained from the front.
    /// Invariant: whenever `len > 0`, `buckets[cur]` is non-empty and its
    /// front entry is the global minimum.
    cur: usize,
    /// The far rung: events beyond the window, in push order.
    overflow: Vec<Entry<E>>,
    /// Reused by `rewindow` to partition `overflow` without allocating.
    scratch: Vec<Entry<E>>,
    /// The same-instant lane: entries keyed `(t, t, seq)`, sorted by time
    /// and then push order (ordering mechanism 4 in the module docs).
    lane: VecDeque<(SimTime, E)>,
    /// Entries in the buckets and the overflow rung (the lane excluded).
    len: usize,
    /// The causal instant stamped onto [`LadderQueue::push`]es; advanced by
    /// [`LadderQueue::set_clock`]. Stays [`SimTime::ZERO`] for callers that
    /// never set it, collapsing the refined key back to `(time, seq)`.
    clock: SimTime,
    now: SimTime,
    popped: u64,
    pushed: u64,
    peak: usize,
    spills: u64,
    rewindows: u64,
}

impl<E> LadderQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        LadderQueue {
            buckets: (0..N_BUCKETS).map(|_| VecDeque::new()).collect(),
            bucket_ps: BUCKET_PS,
            occ: [0; OCC_WORDS],
            base_ps: 0,
            cur: 0,
            overflow: Vec::new(),
            scratch: Vec::new(),
            lane: VecDeque::new(),
            len: 0,
            clock: SimTime::ZERO,
            now: SimTime::ZERO,
            popped: 0,
            pushed: 0,
            peak: 0,
            spills: 0,
            rewindows: 0,
        }
    }

    /// Creates an empty queue sized for roughly `capacity` simultaneously
    /// pending events: the overflow rung, the scratch buffer, the lane,
    /// and every bucket each hold that many before reallocating. Buckets get the
    /// full hint — not `capacity / N_BUCKETS` — because the pending set
    /// can momentarily cluster in one bucket, and a zero-allocation steady
    /// state requires that no bucket ever grows mid-run (buckets retain
    /// whatever capacity they reach, so even an undersized queue allocates
    /// only during warm-up).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = LadderQueue::new();
        q.overflow.reserve(capacity);
        q.scratch.reserve(capacity);
        q.lane.reserve(capacity);
        let per_bucket = capacity.max(4);
        for bucket in &mut q.buckets {
            bucket.reserve(per_bucket);
        }
        q
    }

    /// Like [`LadderQueue::with_capacity`], but with a caller-tuned bucket
    /// width (clamped to at least 1 ps) instead of the [`BUCKET_PS`]
    /// default. Use when the event horizon is known at construction — the
    /// NoC derives it from the minimum link traversal time so one window
    /// always spans a few hundred link hops, keeping spills near zero
    /// across SerDes sweeps. Bit-reproducibility note: the pop order is
    /// `(time, seq)` for *any* width, so tuning this never changes
    /// results.
    pub fn with_capacity_and_bucket(capacity: usize, bucket_ps: u64) -> Self {
        let mut q = LadderQueue::with_capacity(capacity);
        q.bucket_ps = bucket_ps.max(1);
        q
    }

    /// The bucket width in picoseconds this queue was built with.
    pub fn bucket_width_ps(&self) -> u64 {
        self.bucket_ps
    }

    #[inline]
    fn set_occ(&mut self, b: usize) {
        self.occ[b / 64] |= 1u64 << (b % 64);
    }

    #[inline]
    fn clear_occ(&mut self, b: usize) {
        self.occ[b / 64] &= !(1u64 << (b % 64));
    }

    /// The lowest occupied bucket index at or above `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= N_BUCKETS {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.occ[w] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Advances the queue clock: the causal instant stamped onto every
    /// subsequent [`LadderQueue::push`] as the second ordering key.
    /// Simulation drivers call this with the instant they are currently
    /// processing; the clock must never move backwards.
    pub fn set_clock(&mut self, clock: SimTime) {
        debug_assert!(
            clock >= self.clock,
            "queue clock moved backwards ({clock} < {})",
            self.clock
        );
        self.clock = clock;
    }

    /// The current queue clock (see [`LadderQueue::set_clock`]).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Schedules `event` at `time`, stamped with the current queue clock.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` is earlier than the most recently
    /// popped instant (scheduling into the past).
    pub fn push(&mut self, time: SimTime, event: E) {
        let push = self.clock;
        self.push_at(time, push, event);
    }

    /// Schedules `event` at `time` with an explicit causal instant `push`
    /// instead of the queue clock. Sharded execution drains boundary
    /// messages with the *sender's* instant so they sort exactly where a
    /// single global queue would have held them; same-key entries keep
    /// their insertion order. An entry with `push == time` due no later
    /// than the clock takes the same-instant lane; every other entry
    /// goes to the buckets.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` is earlier than the most recently
    /// popped instant, or if `push > time` (an event cannot be caused
    /// after it fires).
    pub fn push_at(&mut self, time: SimTime, push: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} into the past (now = {})",
            self.now
        );
        debug_assert!(
            push <= time,
            "push instant {push} is after the firing time {time}"
        );
        self.pushed += 1;
        if push == time && time <= self.clock {
            // Key (t, t, seq): the lane. With `time == clock` — every
            // same-instant `push` — the entry is the newest at the lane's
            // latest time and appends. The insert below serves only a
            // `push_at` for an instant the clock has already passed.
            let pos = if self.lane.back().is_none_or(|&(last, _)| last <= time) {
                self.lane.len()
            } else {
                self.lane.partition_point(|&(lt, _)| lt <= time)
            };
            self.lane.insert(pos, (time, event));
            self.peak = self.peak.max(self.len());
            return;
        }
        let entry = Entry { time, push, event };
        let t = time.as_ps();
        self.len += 1;
        self.peak = self.peak.max(self.len());
        if self.len == 1 {
            // Empty ladder: re-anchor the window at this event.
            self.base_ps = t;
            self.cur = 0;
            self.buckets[0].push_back(entry);
            self.set_occ(0);
            return;
        }
        let Some(off) = t.checked_sub(self.base_ps) else {
            // Earlier than the window start: the window was anchored at a
            // later event while this push is still ≥ now. Re-anchor at t;
            // the new entry fronts bucket 0 — it is the new global minimum
            // (every windowed and overflowed entry has time ≥ old base
            // > t) and bucket 0 stays sorted (rebase leaves it so).
            self.rebase(t);
            self.buckets[0].push_front(entry);
            self.set_occ(0);
            return;
        };
        let idx = (off / self.bucket_ps) as usize;
        if idx >= N_BUCKETS {
            self.spills += 1;
            self.overflow.push(entry);
            return;
        }
        if idx == self.cur {
            // The active bucket is sorted; this entry is the newest push,
            // so it slots in after every entry with key ≤ its own —
            // exactly the (time, push, seq) position.
            let key = entry.key();
            let pos = self.buckets[idx].partition_point(|e| e.key() <= key);
            self.buckets[idx].insert(pos, entry);
        } else if idx > self.cur {
            // Pending bucket: append; activation sorts stably by time, so
            // push order — and hence seq order — survives for ties.
            self.buckets[idx].push_back(entry);
            self.set_occ(idx);
        } else {
            // Behind the active bucket. Every bucket below `cur` has been
            // drained and cleared, so this one is empty: it becomes the
            // new active bucket (trivially sorted with one entry).
            debug_assert!(self.buckets[idx].is_empty());
            self.buckets[idx].push_back(entry);
            self.set_occ(idx);
            self.cur = idx;
        }
    }

    /// Re-anchors the window at picosecond `t < base_ps` and redistributes
    /// every windowed entry against the new bucket boundaries (entries
    /// pushed past the window demote to the overflow rung). Rare — it only
    /// fires when the window was anchored at a later event than a
    /// subsequent push — and allocation-free via the reusable scratch.
    ///
    /// Ordering safety: entries are stashed bucket-ascending in push
    /// order. Same-instant entries always share a source bucket, so their
    /// relative order survives the stash and the re-append, and entries
    /// landing in bucket 0 all come from old bucket 0 — the active bucket,
    /// already sorted — so bucket 0 remains sorted for the caller.
    fn rebase(&mut self, t: u64) {
        debug_assert!(t < self.base_ps);
        let mut stash = std::mem::take(&mut self.scratch);
        debug_assert!(stash.is_empty());
        let mut from = 0;
        while let Some(i) = self.next_occupied(from) {
            from = i + 1;
            let mut moved = std::mem::take(&mut self.buckets[i]);
            stash.extend(moved.drain(..));
            self.buckets[i] = moved; // retain the drained deque's capacity
            self.clear_occ(i);
        }
        self.base_ps = t;
        for entry in stash.drain(..) {
            let idx = ((entry.time.as_ps() - t) / self.bucket_ps) as usize;
            if idx >= N_BUCKETS {
                // Strictly below every pre-existing overflow time (the
                // window/overflow boundary invariant), so per-instant seq
                // order across the rung holds.
                self.spills += 1;
                self.overflow.push(entry);
            } else {
                self.buckets[idx].push_back(entry);
                self.set_occ(idx);
            }
        }
        self.scratch = stash;
        self.cur = 0;
    }

    /// Sorts `buckets[b]` stably by `(time, push instant)` (preserving
    /// insertion order — and therefore seq order — among equal-key
    /// entries) and makes it the active bucket.
    fn activate(&mut self, b: usize) {
        self.cur = b;
        let bucket = &mut self.buckets[b];
        if bucket.len() > 1 {
            bucket.make_contiguous().sort_by_key(Entry::key);
        }
        debug_assert!(self.buckets[b]
            .iter()
            .zip(self.buckets[b].iter().skip(1))
            .all(|(a, b)| a.key() <= b.key()));
    }

    /// Re-anchors the window at the earliest overflow event and moves the
    /// now-windowed part of the overflow rung into buckets, preserving
    /// push order for both the moved and the retained entries.
    fn rewindow(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        self.rewindows += 1;
        let min_t = self
            .overflow
            .iter()
            .map(|e| e.time.as_ps())
            .min()
            .expect("overflow non-empty");
        self.base_ps = min_t;
        let mut pending = std::mem::take(&mut self.overflow);
        let mut kept = std::mem::take(&mut self.scratch);
        debug_assert!(kept.is_empty());
        for entry in pending.drain(..) {
            let idx = ((entry.time.as_ps() - min_t) / self.bucket_ps) as usize;
            if idx < N_BUCKETS {
                self.buckets[idx].push_back(entry);
                self.set_occ(idx);
            } else {
                kept.push(entry);
            }
        }
        // Both vectors keep their capacity for the next rewindow.
        self.overflow = kept;
        self.scratch = pending;
    }

    /// Restores the active-bucket invariant after `buckets[cur]` drained:
    /// activate the next occupied bucket, rewindowing from the overflow
    /// rung as needed. Caller guarantees `len > 0`.
    fn advance_cur(&mut self) {
        loop {
            if let Some(b) = self.next_occupied(self.cur) {
                self.activate(b);
                return;
            }
            self.rewindow();
            self.cur = 0;
        }
    }

    /// The earliest bucket entry's time, if the ladder holds any.
    #[inline]
    fn ladder_front(&self) -> Option<SimTime> {
        (self.len > 0).then(|| self.buckets[self.cur].front().expect("invariant").time)
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(&(lane_t, _)) = self.lane.front() {
            // At a tied time the buckets go first.
            if self.ladder_front().is_none_or(|t| lane_t < t) {
                self.now = lane_t;
                self.popped += 1;
                return self.lane.pop_front();
            }
        }
        if self.len == 0 {
            return None;
        }
        let entry = self.buckets[self.cur].pop_front().expect("invariant");
        self.len -= 1;
        self.now = entry.time;
        self.popped += 1;
        if self.buckets[self.cur].is_empty() {
            self.clear_occ(self.cur);
            if self.len > 0 {
                self.advance_cur();
            }
        }
        Some((entry.time, entry.event))
    }

    /// Removes the entire same-time run at the head of the queue — every
    /// event firing at the earliest pending instant — appending the events
    /// to `out` in pop order and returning the instant and count.
    ///
    /// Equivalent to calling [`LadderQueue::pop`] while the head time is
    /// unchanged, but it touches the occupancy bitmap and active-bucket
    /// bookkeeping once per *instant* instead of once per event. Same-time
    /// entries always share a bucket (bucket index is a pure function of
    /// the time), so the ladder's run is contiguous at the front of the
    /// active bucket; the lane's run at the same instant follows it.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<(SimTime, usize)> {
        let t = self.peek_time()?;
        let mut n = 0usize;
        if self.ladder_front() == Some(t) {
            let bucket = &mut self.buckets[self.cur];
            while bucket.front().is_some_and(|e| e.time == t) {
                let entry = bucket.pop_front().expect("checked non-empty");
                out.push(entry.event);
                n += 1;
            }
            self.len -= n;
            if self.buckets[self.cur].is_empty() {
                self.clear_occ(self.cur);
                if self.len > 0 {
                    self.advance_cur();
                }
            }
        }
        while self.lane.front().is_some_and(|&(lt, _)| lt == t) {
            let (_, event) = self.lane.pop_front().expect("checked non-empty");
            out.push(event);
            n += 1;
        }
        self.now = t;
        self.popped += n as u64;
        Some((t, n))
    }

    /// The firing time of the earliest pending event, if any. O(1): the
    /// active-bucket invariant keeps the ladder's minimum at the front,
    /// and the lane is sorted.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|&(t, _)| t);
        match (self.ladder_front(), lane) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`]
    /// before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped since construction.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Total events pushed since construction.
    pub fn events_scheduled(&self) -> u64 {
        self.pushed
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Pushes that missed the window and took the overflow rung (plus
    /// rebase demotions) — the "how well does the window fit the horizon"
    /// diagnostic.
    pub fn bucket_spills(&self) -> u64 {
        self.spills
    }

    /// Times the window was re-anchored from the overflow rung.
    pub fn rewindow_count(&self) -> u64 {
        self.rewindows
    }
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        LadderQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = LadderQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo_across_paths() {
        // Same instant reached via pending-append and a rebase shift.
        let mut q = LadderQueue::new();
        let t = SimTime::from_ns(1);
        for i in 0..10 {
            q.push(t, i);
        }
        q.push(SimTime::ZERO, -1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, -1)));
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)), "entry {i}");
        }
    }

    #[test]
    fn far_future_takes_overflow_and_comes_back() {
        let mut q = LadderQueue::new();
        let far = SimTime::from_ps(N_BUCKETS as u64 * BUCKET_PS * 10);
        q.push(SimTime::from_ps(1), 'a');
        q.push(far, 'c');
        q.push(far, 'd');
        q.push(SimTime::from_ps(2), 'b');
        assert!(q.bucket_spills() >= 2);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
        assert!(q.rewindow_count() >= 1);
    }

    #[test]
    fn multi_window_overflow_drains_in_order() {
        // Overflow spanning several windows forces chained rewindows.
        let window = N_BUCKETS as u64 * BUCKET_PS;
        let mut q = LadderQueue::new();
        let mut expect = Vec::new();
        for k in 0..40u64 {
            // Spread across ~13 windows, pushed out of order.
            let t = SimTime::from_ps((k * 37 % 40) * window / 3 + 1);
            q.push(t, (t, k));
            expect.push((t, k));
        }
        // `k` equals push seq order, so sorting by (time, k) gives the
        // required pop order.
        expect.sort_by_key(|&(t, k)| (t, k));
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn push_below_window_after_anchor() {
        // Anchor at a late event, then push earlier (but ≥ now).
        let mut q = LadderQueue::new();
        q.push(SimTime::from_ns(100), 'z');
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(1), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'z']);
    }

    #[test]
    fn rebase_demotes_top_buckets_to_overflow() {
        // Fill a bucket near the top of the window, then rebase far enough
        // back that it falls off the end.
        let window = N_BUCKETS as u64 * BUCKET_PS;
        let mut q = LadderQueue::new();
        let hi = SimTime::from_ps(window - 1);
        q.push(SimTime::from_ps(window / 2), 'm');
        q.push(hi, 'y');
        q.push(hi, 'z');
        q.push(SimTime::from_ps(0), 'a');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'm', 'y', 'z']);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = LadderQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_ns(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.now(), SimTime::from_ns(5));
    }

    #[test]
    fn counters_track() {
        let mut q = LadderQueue::with_capacity(16);
        assert!(q.is_empty());
        for i in 0..5u64 {
            q.push(SimTime::from_ns(i), i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.events_scheduled(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = LadderQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    /// The pop order is `(time, seq)` regardless of bucket geometry: the
    /// same interleaved push/pop schedule — chosen to exercise pending
    /// appends, active-bucket inserts, rebases, spills, and rewindows at
    /// the narrow widths — pops identically at widths spanning three
    /// orders of magnitude.
    #[test]
    fn pop_order_is_independent_of_bucket_width() {
        // Chunk bases advance past the previous chunk's maximum so the
        // interleaved drains below never make a later push "into the
        // past", while within-chunk times are scrambled.
        let schedule: Vec<SimTime> = (0..600u64)
            .map(|k| {
                let chunk = k / 100;
                SimTime::from_ps(chunk * 300_000 + (k * 131_071 % 257) * 997 + (k % 7) * 512)
            })
            .collect();
        let mut reference: Option<Vec<(SimTime, usize)>> = None;
        for width in [1, 97, BUCKET_PS, 65_536] {
            let mut q = LadderQueue::with_capacity_and_bucket(64, width);
            assert_eq!(q.bucket_width_ps(), width);
            let mut got = Vec::new();
            for (i, chunk) in schedule.chunks(100).enumerate() {
                for (j, &t) in chunk.iter().enumerate() {
                    q.push(t, i * 100 + j);
                }
                // Interleave partial drains so `now` advances and later
                // pushes land both before and after the moving window.
                for _ in 0..40 {
                    got.push(q.pop().unwrap());
                }
            }
            while let Some(e) = q.pop() {
                got.push(e);
            }
            assert_eq!(got.len(), schedule.len());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "width {width} diverged"),
            }
        }
    }

    #[test]
    fn pop_batch_drains_whole_same_time_runs() {
        let mut q = LadderQueue::with_capacity(8);
        let t1 = SimTime::from_ns(1);
        let t2 = SimTime::from_ns(2);
        q.push(t2, 'd');
        q.push(t1, 'a');
        q.push(t1, 'b');
        q.push(t1, 'c');
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(&mut out), Some((t1, 3)));
        assert_eq!(out, ['a', 'b', 'c']);
        assert_eq!(q.now(), t1);
        assert_eq!(q.len(), 1);
        out.clear();
        assert_eq!(q.pop_batch_into(&mut out), Some((t2, 1)));
        assert_eq!(out, ['d']);
        assert_eq!(q.pop_batch_into(&mut out), None);
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn pop_batch_matches_pop_one_by_one() {
        // The same scrambled schedule drained via pop() and via
        // pop_batch_into() yields the same flattened sequence.
        let schedule: Vec<(SimTime, usize)> = (0..300usize)
            .map(|k| (SimTime::from_ps((k as u64 * 131_071 % 97) * 512), k))
            .collect();
        let mut a = LadderQueue::with_capacity(64);
        let mut b = LadderQueue::with_capacity(64);
        for &(t, v) in &schedule {
            a.push(t, v);
            b.push(t, v);
        }
        let mut one = Vec::new();
        while let Some((t, v)) = a.pop() {
            one.push((t, v));
        }
        let mut batched = Vec::new();
        let mut out = Vec::new();
        while let Some((t, _)) = b.pop_batch_into(&mut out) {
            batched.extend(out.drain(..).map(|v| (t, v)));
        }
        assert_eq!(one, batched);
    }

    #[test]
    fn push_at_orders_by_causal_instant_within_a_tie() {
        // Local pushes at clock 10 ns; a boundary message caused at 5 ns
        // arriving at the same instant must pop *before* them — exactly
        // where the single global queue would have held it.
        let t = SimTime::from_ns(20);
        let mut q = LadderQueue::new();
        q.set_clock(SimTime::from_ns(10));
        q.push(t, "local-1");
        q.push(t, "local-2");
        q.push_at(t, SimTime::from_ns(5), "remote-early");
        q.push_at(t, SimTime::from_ns(10), "remote-tied");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Equal (time, push) keys keep insertion order: the tied remote
        // lands after both locals pushed at the same clock.
        assert_eq!(order, ["remote-early", "local-1", "local-2", "remote-tied"]);
    }

    #[test]
    fn push_at_ordering_survives_activation_sort() {
        // Same-key stability through the pending-bucket path: land the tie
        // in a not-yet-active bucket so activation has to sort it.
        let mut q = LadderQueue::with_capacity_and_bucket(8, 64);
        q.push(SimTime::from_ps(1), "head");
        let t = SimTime::from_ps(1000);
        q.push_at(t, SimTime::from_ps(700), "b");
        q.push_at(t, SimTime::from_ps(300), "a");
        q.push_at(t, SimTime::from_ps(700), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["head", "a", "b", "c"]);
    }

    #[test]
    fn lane_entries_follow_bucket_entries_at_the_same_instant() {
        // At 10 ns: 'early' was caused at 5 ns and sits in a bucket; the
        // clocked pushes at 10 ns take the lane and pop after it, in
        // push order, in one batch that also counts both.
        let t = SimTime::from_ns(10);
        let mut q = LadderQueue::new();
        q.set_clock(SimTime::from_ns(5));
        q.push(t, "early");
        q.push(SimTime::from_ns(20), "later");
        q.set_clock(t);
        q.push(t, "lane-1");
        q.push(t, "lane-2");
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        assert_eq!(q.peek_time(), Some(t));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(&mut out), Some((t, 3)));
        assert_eq!(out, ["early", "lane-1", "lane-2"]);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "later")));
        assert_eq!(q.events_processed(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn clock_defaults_keep_classic_fifo_order() {
        // Callers that never touch the clock see the old (time, seq)
        // behavior bit for bit.
        let mut q = LadderQueue::new();
        assert_eq!(q.clock(), SimTime::ZERO);
        for i in 0..10 {
            q.push(SimTime::from_ns(3), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "after the firing time")]
    fn push_after_fire_time_panics_in_debug() {
        let mut q = LadderQueue::new();
        q.push_at(SimTime::from_ns(1), SimTime::from_ns(2), ());
    }

    #[test]
    fn zero_width_clamps_to_one() {
        let mut q = LadderQueue::with_capacity_and_bucket(4, 0);
        assert_eq!(q.bucket_width_ps(), 1);
        q.push(SimTime::from_ns(1), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), 'a')));
    }
}
