//! Differential property test: the event queue against a binary-heap
//! reference, driven with identical randomized push/pop schedules.
//!
//! The first reference is the exact structure `EventQueue` used before
//! kernel v3 — a max-heap of [`Scheduled`] entries whose inverted
//! `(time, seq)` ordering delivers same-instant events in FIFO order. The
//! goldens pin that pop order bit-for-bit, so the queue must reproduce it
//! exactly on every schedule, including same-instant bursts, far-future
//! pushes, and pushes behind the earliest pending event. The offsets keep
//! the bucket and window boundaries of the ladder queue the kernel used
//! before, where its corner cases sat.
//!
//! Clocked schedules check pushes due at the caller's current instant
//! against the same reference: a caller whose clock follows every popped
//! instant, as the network's does, pushes many events at `time == clock`
//! behind entries pushed earlier for that instant. A deep case holds
//! over a thousand events pushed out of order, so pushes that land
//! beyond the latest few entries binary-search their slot.

use std::collections::BinaryHeap;

use mn_sim::{EventQueue, Scheduled, SimRng, SimTime};

/// The old ladder's bucket width and bucket count.
const BUCKET_PS: u64 = 512;
const N_BUCKETS: u64 = 256;

/// The pre-v3 `EventQueue` core: a `BinaryHeap` with an insertion-seq
/// tie-break.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Scheduled<u32>>,
    next_seq: u64,
    popped: u64,
}

impl HeapQueue {
    fn push(&mut self, time: SimTime, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled::new(time, seq, event));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let s = self.heap.pop()?;
        self.popped += 1;
        Some((s.time, s.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
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

const WINDOW_PS: u64 = N_BUCKETS * BUCKET_PS;

/// Draws a schedule-relative firing offset, biased toward the adversarial
/// cases: same-instant reuse, exact bucket/window boundaries, and
/// far-future spills.
fn draw_offset(rng: &mut SimRng, recent: &[u64]) -> u64 {
    match rng.below(10) {
        // Same instant as a recent push: exercises every FIFO tie path.
        0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
        // Exact old bucket boundaries.
        3 => rng.below(4) * BUCKET_PS,
        4 => (rng.below(N_BUCKETS) + 1) * BUCKET_PS - 1,
        // Far future: beyond the old window.
        5 => WINDOW_PS + rng.below(3 * WINDOW_PS),
        6 => WINDOW_PS * rng.below(8),
        // Short horizon, the common case.
        _ => rng.below(2 * WINDOW_PS),
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::default();
    let mut recent: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;

    for op in 0..ops {
        // Bias toward pushes so the queues stay populated, with occasional
        // pop bursts that drain across the old bucket and window
        // boundaries.
        let do_push = queue.is_empty() || rng.below(100) < 55;
        if do_push {
            let burst = 1 + rng.geometric(0.4, 8);
            for _ in 0..burst {
                let t = now + draw_offset(&mut rng, &recent);
                recent.push(t);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                queue.push(SimTime::from_ps(t), tag);
                heap.push(SimTime::from_ps(t), tag);
                tag += 1;
            }
        } else {
            let burst = 1 + rng.geometric(0.5, 16) as usize;
            for _ in 0..burst {
                assert_eq!(
                    queue.peek_time(),
                    heap.peek_time(),
                    "peek diverged (seed {seed}, op {op})"
                );
                let l = queue.pop();
                let h = heap.pop();
                assert_eq!(l, h, "pop diverged (seed {seed}, op {op})");
                match l {
                    Some((t, _)) => now = t.as_ps(),
                    None => break,
                }
            }
        }
        assert_eq!(queue.len(), heap.heap.len(), "len (seed {seed}, op {op})");
    }

    // Drain both queues to the end.
    loop {
        assert_eq!(
            queue.peek_time(),
            heap.peek_time(),
            "drain peek (seed {seed})"
        );
        let l = queue.pop();
        let h = heap.pop();
        assert_eq!(l, h, "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(queue.is_empty());
    assert_eq!(
        queue.events_processed(),
        heap.popped,
        "events_processed (seed {seed})"
    );
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
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::default();
    let mut rng = SimRng::seed_from(77);
    let instants = [0u64, 1, BUCKET_PS - 1, BUCKET_PS, WINDOW_PS, WINDOW_PS + 1];
    for tag in 0..3_000u32 {
        let t = SimTime::from_ps(instants[rng.below(instants.len() as u64) as usize]);
        queue.push(t, tag);
        heap.push(t, tag);
    }
    loop {
        let l = queue.pop();
        assert_eq!(l, heap.pop());
        if l.is_none() {
            break;
        }
    }
}

/// Drives both queues with one clocked schedule: the caller's clock
/// follows every popped instant and sometimes jumps ahead (a caller
/// injecting at a later instant), and pushes mix `time == clock` with
/// future times.
fn run_clocked_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(16);
    let mut reference = HeapQueue::default();
    let mut clock = 0u64;
    let mut now = 0u64;
    let mut tag = 0u32;
    let mut batch = Vec::new();

    for op in 0..ops {
        match rng.below(20) {
            // Push bursts: at-clock pushes dominate, as in a network.
            0..=9 => {
                for _ in 0..1 + rng.geometric(0.4, 8) {
                    let time = SimTime::from_ps(match rng.below(10) {
                        0..=4 => clock,
                        5..=6 => clock + draw_offset(&mut rng, &[]),
                        _ => clock + rng.below(4 * BUCKET_PS),
                    });
                    queue.push(time, tag);
                    reference.push(time, tag);
                    tag += 1;
                }
            }
            10..=13 => {
                let l = queue.pop();
                assert_eq!(l, reference.pop(), "pop diverged (seed {seed}, op {op})");
                if let Some((t, _)) = l {
                    now = t.as_ps();
                }
            }
            14..=17 => {
                batch.clear();
                let l = queue.pop_batch_into(&mut batch);
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
            }
            _ => assert_eq!(
                queue.peek_time(),
                reference.peek_time(),
                "peek diverged (seed {seed}, op {op})"
            ),
        }
        // Drivers process each popped instant with the clock at it.
        clock = clock.max(now);
        assert_eq!(
            queue.len(),
            reference.heap.len(),
            "len (seed {seed}, op {op})"
        );
    }
    while let Some(l) = queue.pop() {
        assert_eq!(Some(l), reference.pop(), "drain diverged (seed {seed})");
    }
    assert_eq!(reference.pop(), None, "drain length (seed {seed})");
    assert_eq!(
        queue.events_processed(),
        reference.popped,
        "events_processed (seed {seed})"
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

/// One push of the deep schedule into both queues, tagged with its
/// sequence number. A quarter are due at the clock. The rest are due on
/// one of 64 bucket-width steps after the clock, so many share a time.
fn push_deep(queue: &mut EventQueue<u32>, reference: &mut HeapQueue, rng: &mut SimRng, clock: u64) {
    let time = if rng.below(4) == 0 {
        clock
    } else {
        clock.next_multiple_of(BUCKET_PS) + (1 + rng.below(64)) * BUCKET_PS
    };
    let time = SimTime::from_ps(time);
    let tag = reference.next_seq as u32;
    queue.push(time, tag);
    reference.push(time, tag);
}

/// Holds over a thousand events pushed out of order, then drains them
/// while pushing more. Pending pushes carry random times, so most of
/// them binary-search a slot deep in the queue.
fn run_deep_schedule(seed: u64, depth: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut reference = HeapQueue::default();
    let mut clock = 4 * WINDOW_PS;

    for _ in 0..depth {
        push_deep(&mut queue, &mut reference, &mut rng, clock);
        assert_eq!(queue.len(), reference.heap.len(), "len (seed {seed})");
    }
    assert!(queue.len() >= depth);
    let mut batch = Vec::new();
    let mut step = 0;
    while !queue.is_empty() {
        step += 1;
        let now = if step % 3 == 0 {
            batch.clear();
            let l = queue.pop_batch_into(&mut batch);
            let r = reference.pop_batch();
            assert_eq!(
                l.map(|(t, n)| (t, batch.clone(), n)),
                r.map(|(t, events)| (t, events.clone(), events.len())),
                "batch diverged (seed {seed}, step {step})"
            );
            l.expect("non-empty").0.as_ps()
        } else {
            let l = queue.pop();
            assert_eq!(
                l,
                reference.pop(),
                "pop diverged (seed {seed}, step {step})"
            );
            l.expect("non-empty").0.as_ps()
        };
        clock = clock.max(now);
        // Keep refilling for the first half of the drain.
        if step < depth / 2 {
            push_deep(&mut queue, &mut reference, &mut rng, clock);
        }
        assert_eq!(
            queue.len(),
            reference.heap.len(),
            "len (seed {seed}, step {step})"
        );
    }
    assert_eq!(reference.pop(), None, "drain length (seed {seed})");
    assert_eq!(
        queue.events_processed(),
        reference.popped,
        "events_processed (seed {seed})"
    );
}

#[test]
fn deep_out_of_order_queue_matches_causal_reference() {
    for seed in 0..8 {
        run_deep_schedule(0xDEE9_0000 + seed, 1_200);
    }
}
