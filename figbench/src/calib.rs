//! Host-speed calibration.
//!
//! Other tenants of a shared host slow every pass, by up to 1.6 times on
//! the development host, in phases that last minutes. No statistic over
//! one run's passes filters out a phase that outlasts the run. So every
//! pass also times a fixed reference load on its own number of threads,
//! just before and just after its timed region, and the benchmark scales
//! each host time it reports to the reference speed. The reference load
//! is this file's own code and calls nothing in the simulator: a change
//! to the simulator moves a pass's time but not the reference's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The reference load's wall time at the reference speed, ns. Only
/// ratios between runs on one host matter; this constant sets the scale.
pub const REFERENCE_NS: f64 = 25e6;

/// Events each thread of the reference load handles.
const EVENTS: usize = 150_000;
/// Events pending in each thread's queue.
const DEPTH: usize = 1 << 14;
/// Words in each thread's state table (4 MiB, past a core's private
/// caches, as a simulator's packet arena and controller state are).
const TABLE: usize = 1 << 19;

/// One thread's state, built before the clock starts.
struct Load {
    rng: u64,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
}

impl Load {
    fn new(seed: u64) -> Load {
        let mut load = Load {
            rng: (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            queue: BinaryHeap::with_capacity(DEPTH + 1),
            table: (0..TABLE as u64).collect(),
        };
        for id in 0..DEPTH as u32 {
            let at = load.next() % 4096;
            load.queue.push(Reverse((at, id)));
        }
        load
    }

    /// xorshift64.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// A discrete-event loop, as a simulator kernel runs one: pop the
    /// earliest event, update a random word of state, schedule a follower.
    fn run(mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, id)) = self.queue.pop().expect("every pop is followed by a push");
            let slot = (self.next() as usize) & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(at ^ u64::from(id));
            acc ^= self.table[slot];
            let delay = 1 + self.next() % 4096;
            self.queue.push(Reverse((at + delay, id)));
        }
        acc
    }
}

/// Wall time of the reference load run on `threads` threads at once, ns.
pub fn reference_ns(threads: usize) -> f64 {
    let loads: Vec<Load> = (0..threads.max(1) as u64).map(Load::new).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .into_iter()
            .map(|load| scope.spawn(move || load.run()))
            .collect();
        for handle in handles {
            std::hint::black_box(handle.join().expect("the reference load does not panic"));
        }
    });
    start.elapsed().as_nanos() as f64
}

/// The host's speed against the reference, from the reference load's
/// times around a pass: below 1 when the host ran slow. A host time
/// multiplied by it reads as at the reference speed.
pub fn speed(reference_ns: &[f64]) -> f64 {
    let mean = reference_ns.iter().sum::<f64>() / reference_ns.len().max(1) as f64;
    if mean > 0.0 {
        REFERENCE_NS / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_reads_below_the_reference_speed() {
        assert_eq!(speed(&[REFERENCE_NS]), 1.0);
        assert_eq!(speed(&[REFERENCE_NS * 1.5, REFERENCE_NS * 2.5]), 0.5);
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn the_reference_load_takes_time() {
        assert!(reference_ns(2) > 0.0);
    }
}
