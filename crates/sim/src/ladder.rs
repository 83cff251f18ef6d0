//! Compatibility names from the ladder (calendar) queue that
//! [`EventQueue`] used to wrap. The queue is now two sorted sequences
//! (see [`EventQueue`] and `DESIGN.md` §5.3); these names are kept for the
//! frozen `figbench` package, which compiles against them, and are
//! retired with its next change.
//!
//! The unit tests below are the queue's pop-order tests. They keep the
//! names they had when this module held the ladder and drive the queue
//! through the alias `figbench` uses.

use crate::event::EventQueue;

/// The old ladder bucket width in picoseconds. Nothing in the queue uses
/// it; kept for the frozen `figbench` package, whose fallback bucket
/// width still names it.
pub const BUCKET_PS: u64 = 512;

/// The old name of [`EventQueue`], kept for the frozen `figbench`
/// package.
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
pub type LadderQueue<E> = EventQueue<E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    /// The old ladder's window span (256 buckets of 512 ps). The
    /// schedules below keep the times they were written with.
    const WINDOW_PS: u64 = 256 * BUCKET_PS;

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
        // Ten pushes at one instant, then an earlier push that becomes
        // the next to pop.
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
        let far = SimTime::from_ps(WINDOW_PS * 10);
        q.push(SimTime::from_ps(1), 'a');
        q.push(far, 'c');
        q.push(far, 'd');
        q.push(SimTime::from_ps(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
    }

    #[test]
    fn multi_window_overflow_drains_in_order() {
        // Times spread over many old windows, pushed out of order.
        let window = WINDOW_PS;
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
        // Entries near the top of the old window, then an earlier push
        // that inserts ahead of them all.
        let window = WINDOW_PS;
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

    /// The bucket width `with_capacity_and_bucket` takes is ignored: the
    /// same interleaved push/pop schedule — appends, mid-queue inserts
    /// and partial drains — pops identically at widths spanning three
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
            let mut got = Vec::new();
            for (i, chunk) in schedule.chunks(100).enumerate() {
                for (j, &t) in chunk.iter().enumerate() {
                    q.push(t, i * 100 + j);
                }
                // Interleave partial drains so `now` advances and later
                // pushes land both before and after pending entries.
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
    fn lane_entries_follow_bucket_entries_at_the_same_instant() {
        // At 10 ns: 'early' was pushed while the caller was at 5 ns; the
        // pushes made once the caller reached 10 ns pop after it, in push
        // order, in one batch that also counts all three.
        let t = SimTime::from_ns(10);
        let mut q = LadderQueue::new();
        q.push(t, "early");
        q.push(SimTime::from_ns(20), "later");
        q.push(t, "at-clock-1");
        q.push(t, "at-clock-2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(t));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(&mut out), Some((t, 3)));
        assert_eq!(out, ["early", "at-clock-1", "at-clock-2"]);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "later")));
        assert_eq!(q.events_processed(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn clock_defaults_keep_classic_fifo_order() {
        // Same-instant pushes pop in (time, seq) order.
        let mut q = LadderQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_ns(3), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }
}
