//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] is one sorted `Vec`, `pending`, kept in descending
//! order so its earliest entry pops from the end. The traffic of a
//! router-network simulation keeps the queue short (tens of events) and
//! close to the clock, and most pushes land a few entries from the latest
//! pending event, so a push compares its latest entries one by one before
//! it binary-searches the rest.
//!
//! ## The pop order
//!
//! The pop order is **exactly** `(time, insertion sequence)`, the order a
//! binary heap with an explicit sequence tie-break produces — which is
//! what pins the workspace's bit-reproducible results. The queue never
//! stores the sequence number. Stable insertion keeps the order instead
//! (see `DESIGN.md` §5.3): `pending` is descending by time, and a push
//! lands before (at a lower index than) every entry due no later than
//! it, so it pops after them. Its sequence number is the largest yet
//! issued, so among equal times push order — the sequence order —
//! survives.
//!
//! The [`Scheduled`] wrapper (with the heap's inverted ordering) remains
//! available for reference implementations and differential tests.

use std::cmp::Ordering;

use crate::time::SimTime;

/// How many of the latest `pending` entries a push compares one by one
/// before it binary-searches the rest. On Fig. 10, 79% of the network's
/// link-arrival and link-free pushes land within eight of the latest
/// entry, and the mean is five (measured while a half-duplex send still
/// pushed one link-free wake per end).
const NEAR: usize = 16;

/// An event scheduled for a particular instant.
///
/// Ordering is by time, then by insertion sequence number, so two events
/// scheduled for the same instant are delivered in FIFO order. Deterministic
/// tie-breaking is essential for reproducible simulations.
///
/// [`EventQueue`] no longer stores these; a max-heap of `Scheduled`
/// pops the same sequence, which makes it the reference ordering for
/// differential tests.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// Wraps `event` with an explicit firing time and tie-break sequence
    /// number (lower sequence pops first among same-instant events).
    pub fn new(time: SimTime, seq: u64, event: E) -> Self {
        Scheduled { time, seq, event }
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events with `(time,
/// insertion-seq)` pop order.
///
/// Events popped from the queue are monotonically non-decreasing in time.
/// Scheduling an event earlier than the last popped event is a logic
/// error in the caller and is caught by a debug assertion in
/// [`EventQueue::push`].
///
/// # Example
///
/// ```
/// use mn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(3), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// q.push(SimTime::from_ns(3), 'c'); // same instant as 'b': FIFO order
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every pending entry, descending by time with equal times in
    /// reverse push order, so the next to pop is last (see the module
    /// docs).
    pending: Vec<(SimTime, E)>,
    now: SimTime,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Creates an empty queue that holds `capacity` events before
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.pending.reserve(capacity);
        q
    }

    /// [`EventQueue::with_capacity`]; the bucket width is ignored. Kept
    /// for the frozen `figbench` package, which still passes one.
    pub fn with_capacity_and_bucket(capacity: usize, _bucket_ps: u64) -> Self {
        EventQueue::with_capacity(capacity)
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` is earlier than the time of the
    /// most recently popped event (scheduling into the past).
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} into the past (now = {})",
            self.now
        );
        // The newest push pops after every entry due no later than it —
        // exactly the (time, seq) position. It usually lands among the
        // latest entries, so those are scanned first (see `NEAR`).
        let near = self.pending.len().min(NEAR);
        let pos = match self.pending[..near].iter().position(|&(t, _)| t <= time) {
            Some(pos) => pos,
            None => near + self.pending[near..].partition_point(|&(t, _)| t > time),
        };
        self.pending.insert(pos, (time, event));
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, event) = self.pending.pop()?;
        self.now = t;
        self.popped += 1;
        Some((t, event))
    }

    /// Removes the entire same-time run at the head — every event firing
    /// at the earliest pending instant — appending the events to `out` in
    /// pop order and returning the instant and count. The flattened
    /// sequence is identical to repeated [`EventQueue::pop`].
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<(SimTime, usize)> {
        let t = self.peek_time()?;
        let start = out.len();
        while self.pending.last().is_some_and(|&(pt, _)| pt == t) {
            let (_, event) = self.pending.pop().expect("checked non-empty");
            out.push(event);
        }
        let n = out.len() - start;
        self.now = t;
        self.popped += n as u64;
        Some((t, n))
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|&(t, _)| t)
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`] before
    /// the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total number of events popped since construction.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut queue = EventQueue::new();
        queue.extend(iter);
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_and_emptiness() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.extend((0..5).map(|i| (SimTime::from_ns(i), i)));
        assert_eq!(q.len(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let q: EventQueue<u32> = (0..3).map(|i| (SimTime::from_ns(i), i as u32)).collect();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_ns(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }
}
