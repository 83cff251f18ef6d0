//! Differential property test: the ladder queue against a binary-heap
//! reference, driven with identical randomized push/pop schedules.
//!
//! The reference is the exact structure `EventQueue` used before kernel
//! v3 — a max-heap of [`Scheduled`] entries whose inverted `(time, seq)`
//! ordering delivers same-instant events in FIFO order. The goldens pin
//! that pop order bit-for-bit, so the ladder must reproduce it exactly on
//! every schedule, including same-instant bursts, bucket-boundary times,
//! window-overflowing far-future pushes, and pushes behind the window
//! anchor.
//!
//! A second reference keys the heap `(time, push instant, seq)`, the
//! order a clocked queue promises. It checks the same-instant lane: a
//! driver that sets the clock to every popped instant, as the network
//! does, sends each push at `time == clock` down the lane.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mn_sim::ladder::{BUCKET_PS, N_BUCKETS};
use mn_sim::{LadderQueue, Scheduled, SimRng, SimTime};

/// The pre-v3 `EventQueue` core: a `BinaryHeap` with an insertion-seq
/// tie-break.
struct HeapQueue {
    heap: BinaryHeap<Scheduled<u32>>,
    next_seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled::new(time, seq, event));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }
}

const WINDOW_PS: u64 = N_BUCKETS as u64 * BUCKET_PS;

/// Draws a schedule-relative firing offset, biased toward the adversarial
/// cases: same-instant reuse, exact bucket/window boundaries, and
/// far-future spills.
fn draw_offset(rng: &mut SimRng, recent: &[u64]) -> u64 {
    match rng.below(10) {
        // Same instant as a recent push: exercises every FIFO tie path.
        0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
        // Exact bucket boundaries around the window anchor.
        3 => rng.below(4) * BUCKET_PS,
        4 => (rng.below(N_BUCKETS as u64) + 1) * BUCKET_PS - 1,
        // Beyond the window: overflow rung + rewindow.
        5 => WINDOW_PS + rng.below(3 * WINDOW_PS),
        6 => WINDOW_PS * rng.below(8),
        // Short horizon, the common case.
        _ => rng.below(2 * WINDOW_PS),
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut ladder: LadderQueue<u32> = LadderQueue::new();
    let mut heap = HeapQueue::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;

    for op in 0..ops {
        // Bias toward pushes so the queues stay populated, with occasional
        // pop bursts that drain across bucket and window boundaries.
        let do_push = ladder.is_empty() || rng.below(100) < 55;
        if do_push {
            let burst = 1 + rng.geometric(0.4, 8);
            for _ in 0..burst {
                let t = now + draw_offset(&mut rng, &recent);
                recent.push(t);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                ladder.push(SimTime::from_ps(t), tag);
                heap.push(SimTime::from_ps(t), tag);
                tag += 1;
            }
        } else {
            let burst = 1 + rng.geometric(0.5, 16) as usize;
            for _ in 0..burst {
                assert_eq!(
                    ladder.peek_time(),
                    heap.peek_time(),
                    "peek diverged (seed {seed}, op {op})"
                );
                let l = ladder.pop();
                let h = heap.pop();
                assert_eq!(l, h, "pop diverged (seed {seed}, op {op})");
                match l {
                    Some((t, _)) => now = t.as_ps(),
                    None => break,
                }
            }
        }
    }

    // Drain both queues to the end.
    loop {
        assert_eq!(
            ladder.peek_time(),
            heap.peek_time(),
            "drain peek (seed {seed})"
        );
        let l = ladder.pop();
        let h = heap.pop();
        assert_eq!(l, h, "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(ladder.is_empty());
}

#[test]
fn ladder_matches_binary_heap_reference() {
    for seed in 0..64 {
        run_schedule(0xD1FF_0000 + seed, 2_000);
    }
}

#[test]
fn ladder_matches_reference_on_long_schedules() {
    for seed in 0..4 {
        run_schedule(0x4C0A_D500_u64.wrapping_add(seed), 40_000);
    }
}

#[test]
fn ladder_matches_reference_on_pure_same_instant_bursts() {
    // Everything at a handful of instants: the pop order is decided purely
    // by the FIFO tie-break.
    let mut ladder: LadderQueue<u32> = LadderQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = SimRng::seed_from(77);
    let instants = [0u64, 1, BUCKET_PS - 1, BUCKET_PS, WINDOW_PS, WINDOW_PS + 1];
    for tag in 0..3_000u32 {
        let t = SimTime::from_ps(instants[rng.below(instants.len() as u64) as usize]);
        ladder.push(t, tag);
        heap.push(t, tag);
    }
    loop {
        let l = ladder.pop();
        assert_eq!(l, heap.pop());
        if l.is_none() {
            break;
        }
    }
}

/// The `(time, push instant, seq)` reference for a clocked queue.
#[derive(Default)]
struct CausalHeap {
    heap: BinaryHeap<Reverse<(SimTime, SimTime, u64, u32)>>,
    next_seq: u64,
    peak: usize,
    popped: u64,
}

impl CausalHeap {
    fn push_at(&mut self, time: SimTime, push: SimTime, event: u32) {
        self.heap.push(Reverse((time, push, self.next_seq, event)));
        self.next_seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((time, _, _, event)) = self.heap.pop()?;
        self.popped += 1;
        Some((time, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    /// Every event at the earliest instant, in pop order.
    fn pop_batch(&mut self) -> Option<(SimTime, Vec<u32>)> {
        let t = self.peek_time()?;
        let mut events = Vec::new();
        while self.peek_time() == Some(t) {
            events.push(self.pop().expect("peeked").1);
        }
        Some((t, events))
    }
}

/// Drives both queues with one clocked schedule: the clock follows every
/// popped instant and sometimes jumps ahead (a driver injecting at a
/// later instant), pushes mix `time == clock` (the lane), future times,
/// and `push_at` with an earlier causal instant, some of them due exactly
/// at the clock or at an instant the clock has already passed.
fn run_clocked_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut ladder: LadderQueue<u32> = LadderQueue::with_capacity_and_bucket(16, 97);
    let mut reference = CausalHeap::default();
    let mut clock = 0u64;
    let mut now = 0u64;
    let mut tag = 0u32;
    let mut batch = Vec::new();

    for op in 0..ops {
        match rng.below(20) {
            // Push bursts: the lane's share dominates, as in a network.
            0..=9 => {
                for _ in 0..1 + rng.geometric(0.4, 8) {
                    let (time, push) = match rng.below(10) {
                        0..=4 => (clock, clock),
                        5..=6 => (clock + draw_offset(&mut rng, &[]), clock),
                        _ => {
                            // A causal instant at or before the clock; the
                            // event is never due before the last pop.
                            let push = rng.below(clock + 1);
                            let time = match rng.below(4) {
                                0 if push >= now => push,
                                1 => clock,
                                _ => push.max(now) + rng.below(4 * BUCKET_PS),
                            };
                            (time, push)
                        }
                    };
                    let (time, push) = (SimTime::from_ps(time), SimTime::from_ps(push));
                    if push == SimTime::from_ps(clock) {
                        ladder.push(time, tag);
                    } else {
                        ladder.push_at(time, push, tag);
                    }
                    reference.push_at(time, push, tag);
                    tag += 1;
                }
            }
            10..=13 => {
                let l = ladder.pop();
                assert_eq!(l, reference.pop(), "pop diverged (seed {seed}, op {op})");
                if let Some((t, _)) = l {
                    now = t.as_ps();
                }
            }
            14..=17 => {
                batch.clear();
                let l = ladder.pop_batch_into(&mut batch);
                let r = reference.pop_batch();
                assert_eq!(
                    l.map(|(t, n)| (t, batch.clone(), n)),
                    r.map(|(t, events)| (t, events.clone(), events.len())),
                    "batch diverged (seed {seed}, op {op})"
                );
                if let Some((t, _)) = l {
                    now = t.as_ps();
                }
            }
            18 => {
                // Jump the clock ahead of the queue, as an injection at a
                // later instant does.
                clock += rng.below(2 * BUCKET_PS);
                ladder.set_clock(SimTime::from_ps(clock));
            }
            _ => assert_eq!(
                ladder.peek_time(),
                reference.peek_time(),
                "peek diverged (seed {seed}, op {op})"
            ),
        }
        // Drivers process each popped instant with the clock at it.
        if now > clock {
            clock = now;
            ladder.set_clock(SimTime::from_ps(clock));
        }
        assert_eq!(
            ladder.len(),
            reference.heap.len(),
            "len (seed {seed}, op {op})"
        );
    }
    while let Some(l) = ladder.pop() {
        assert_eq!(Some(l), reference.pop(), "drain diverged (seed {seed})");
    }
    assert_eq!(reference.pop(), None, "drain length (seed {seed})");
    assert_eq!(ladder.peak_len(), reference.peak, "peak_len (seed {seed})");
    assert_eq!(
        ladder.events_processed(),
        reference.popped,
        "events_processed (seed {seed})"
    );
    assert_eq!(
        ladder.events_scheduled(),
        reference.next_seq,
        "events_scheduled (seed {seed})"
    );
}

#[test]
fn lane_matches_causal_reference() {
    for seed in 0..64 {
        run_clocked_schedule(0x1A4E_0000 + seed, 3_000);
    }
}

#[test]
fn lane_matches_causal_reference_on_long_schedules() {
    for seed in 0..4 {
        run_clocked_schedule(0x1A4E_D500_u64.wrapping_add(seed), 40_000);
    }
}
