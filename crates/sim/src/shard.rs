//! Primitives for conservative parallel (PDES) sharding: bounded SPSC
//! message channels, published shard clocks, shared progress counters, and
//! a cooperative abort flag.
//!
//! The sharded execution mode (see `DESIGN.md` §5.4) partitions a
//! simulation into logical processes that each own a [`crate::EventQueue`]
//! and advance under a conservative lookahead window: shard `r` may process
//! instant `t` only while `t < clock(s) + L(s→r)` for every upstream shard
//! `s`, where `L` is the minimum latency of any boundary link from `s` to
//! `r`. The primitives here carry the three cross-thread facts that
//! protocol needs — "here is a message", "I will never again send below
//! this instant", and "I am still making progress" — with pre-allocated
//! storage so the steady state of a sharded run performs no heap
//! allocation.
//!
//! Everything is safe code over `std` atomics and mutexes; the channel is
//! a `Mutex<VecDeque>` rather than a lock-free ring because boundary
//! crossings are orders of magnitude rarer than events (one per packet per
//! cut, vs. dozens of events per packet), so the lock is never contended
//! enough to matter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

/// Error returned by [`ShardSender::send`] when the channel is at
/// capacity, handing the rejected message back to the caller.
///
/// A full boundary channel means the receiver has fallen further behind
/// than the conservative protocol budgeted for; senders must treat it as a
/// fatal anomaly (abort and rerun serially), never block on it — blocking
/// inside the window loop can deadlock the shard graph.
#[derive(Debug)]
pub struct SendFull<T>(pub T);

struct ChannelInner<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
}

/// The sending half of a bounded SPSC shard channel.
#[derive(Debug)]
pub struct ShardSender<T> {
    inner: Arc<ChannelInner<T>>,
}

/// The receiving half of a bounded SPSC shard channel.
#[derive(Debug)]
pub struct ShardReceiver<T> {
    inner: Arc<ChannelInner<T>>,
}

impl<T> std::fmt::Debug for ChannelInner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelInner")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Creates a bounded channel with storage for `capacity` messages,
/// pre-allocated so sends never grow the queue.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded<T>(capacity: usize) -> (ShardSender<T>, ShardReceiver<T>) {
    assert!(capacity > 0, "shard channel capacity must be positive");
    let inner = Arc::new(ChannelInner {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
    });
    (
        ShardSender {
            inner: Arc::clone(&inner),
        },
        ShardReceiver { inner },
    )
}

impl<T> ShardSender<T> {
    /// Enqueues `message`, or returns it inside [`SendFull`] when the
    /// channel is at capacity.
    pub fn send(&self, message: T) -> Result<(), SendFull<T>> {
        let mut queue = self.inner.queue.lock().expect("channel lock poisoned");
        if queue.len() >= self.inner.capacity {
            return Err(SendFull(message));
        }
        queue.push_back(message);
        Ok(())
    }

    /// The channel's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl<T> ShardReceiver<T> {
    /// Moves every queued message into `out`, preserving send order.
    /// Returns the number drained.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut queue = self.inner.queue.lock().expect("channel lock poisoned");
        let n = queue.len();
        out.extend(queue.drain(..));
        n
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("channel lock poisoned")
            .len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shard's published lower bound: "I will never again send a message
/// that arrives below this instant."
///
/// Writers publish monotonically; readers add their per-pair lookahead to
/// form the horizon they may safely process up to. This is the
/// null-message channel of the classic conservative protocol, collapsed to
/// one atomic per shard (every peer reads the same bound).
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    ps: Arc<AtomicU64>,
}

impl SharedClock {
    /// A clock at [`SimTime::ZERO`].
    pub fn new() -> SharedClock {
        SharedClock::default()
    }

    /// Publishes a new lower bound. Values below the current bound are
    /// ignored — the published clock never moves backwards, so readers may
    /// cache horizon computations.
    pub fn publish(&self, bound: SimTime) {
        self.ps.fetch_max(bound.as_ps(), Ordering::Release);
    }

    /// The latest published lower bound.
    pub fn get(&self) -> SimTime {
        SimTime::from_ps(self.ps.load(Ordering::Acquire))
    }
}

/// A monotone progress counter a shard bumps as it works, readable from
/// other threads.
///
/// The per-port stall watchdog observes the *sum* of all shards' counters
/// (plus published clocks), so a shard that is legitimately idle — parked
/// at its horizon while a neighbor works — never trips `Stalled`; only a
/// globally flat system does.
#[derive(Debug, Clone, Default)]
pub struct ProgressCell {
    count: Arc<AtomicU64>,
}

impl ProgressCell {
    /// A counter at zero.
    pub fn new() -> ProgressCell {
        ProgressCell::default()
    }

    /// Adds `n` units of progress.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// The total progress recorded so far.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A cooperative abort flag shared by every shard of a run.
///
/// Raised on any anomaly — a full boundary channel, a conservative
/// occupancy bound reaching buffer capacity, a per-shard watchdog trip —
/// after which every shard unwinds cleanly and the coordinator re-executes
/// the run serially (the serial path is always authoritative).
#[derive(Debug, Clone, Default)]
pub struct AbortFlag {
    raised: Arc<AtomicBool>,
}

impl AbortFlag {
    /// A lowered flag.
    pub fn new() -> AbortFlag {
        AbortFlag::default()
    }

    /// Raises the flag.
    pub fn raise(&self) {
        self.raised.store(true, Ordering::Release);
    }

    /// True once any shard has raised the flag.
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_roundtrip_preserves_order() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 3);
        assert_eq!(out, [1, 2, 3]);
        assert!(rx.is_empty());
    }

    #[test]
    fn channel_rejects_at_capacity_and_hands_back_the_message() {
        let (tx, rx) = bounded(2);
        tx.send("a").unwrap();
        tx.send("b").unwrap();
        let SendFull(rejected) = tx.send("c").unwrap_err();
        assert_eq!(rejected, "c");
        assert_eq!(rx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = bounded::<()>(0);
    }

    #[test]
    fn clock_is_monotone() {
        let clock = SharedClock::new();
        clock.publish(SimTime::from_ns(10));
        clock.publish(SimTime::from_ns(5)); // ignored: would move backwards
        assert_eq!(clock.get(), SimTime::from_ns(10));
        clock.publish(SimTime::from_ns(11));
        assert_eq!(clock.get(), SimTime::from_ns(11));
    }

    #[test]
    fn progress_and_abort_are_shared() {
        let progress = ProgressCell::new();
        let alias = progress.clone();
        progress.add(3);
        alias.add(4);
        assert_eq!(progress.get(), 7);

        let abort = AbortFlag::new();
        let remote = abort.clone();
        assert!(!abort.is_raised());
        remote.raise();
        assert!(abort.is_raised());
    }

    #[test]
    fn channel_crosses_threads() {
        let (tx, rx) = bounded(64);
        let clock = SharedClock::new();
        let sender_clock = clock.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..50u64 {
                    sender_clock.publish(SimTime::from_ns(i));
                    tx.send(i).unwrap();
                }
            });
            let mut out = Vec::new();
            while out.len() < 50 {
                rx.drain_into(&mut out);
                std::thread::yield_now();
            }
            assert_eq!(out, (0..50).collect::<Vec<_>>());
        });
        assert_eq!(clock.get(), SimTime::from_ns(49));
    }
}
