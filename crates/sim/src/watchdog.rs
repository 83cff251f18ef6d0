//! A livelock watchdog for simulation driver loops.
//!
//! Discrete-event drivers are supposed to terminate because some progress
//! metric (completed requests, delivered packets) reaches a target. A bug
//! anywhere in the stack — a lost wakeup, a credit leak, a routing cycle —
//! turns that loop into an infinite one. [`Watchdog`] bounds the damage:
//! the driver reports its progress metric once per iteration, and when the
//! metric fails to advance for a configured number of consecutive
//! observations the watchdog trips, letting the driver abort with a
//! structured error (and a state snapshot) instead of hanging the worker.

/// Trips after a progress metric stays flat for `limit` observations.
///
/// # Example
///
/// ```
/// use mn_sim::Watchdog;
///
/// let mut dog = Watchdog::new(3);
/// assert!(!dog.observe(0)); // first observation arms the watchdog
/// assert!(!dog.observe(1)); // progress: counter resets
/// assert!(!dog.observe(1));
/// assert!(!dog.observe(1));
/// assert!(dog.observe(1)); // three flat observations after the last advance
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog {
    limit: u64,
    idle: u64,
    last: Option<u64>,
}

impl Watchdog {
    /// A watchdog that trips after `limit` consecutive observations with
    /// no progress.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero — a watchdog that trips on the first
    /// observation would report every simulation as stalled.
    pub fn new(limit: u64) -> Watchdog {
        assert!(limit > 0, "watchdog limit must be positive");
        Watchdog {
            limit,
            idle: 0,
            last: None,
        }
    }

    /// Records the current progress metric. Returns `true` when the metric
    /// has not advanced for `limit` consecutive observations — the caller
    /// should abort with a diagnostic rather than keep looping.
    ///
    /// The metric may be any monotonically non-decreasing counter; the
    /// watchdog only compares consecutive values, so a metric that *moves*
    /// (in either direction) counts as progress.
    pub fn observe(&mut self, progress: u64) -> bool {
        match self.last {
            Some(last) if last == progress => {
                self.idle += 1;
                self.idle >= self.limit
            }
            _ => {
                self.last = Some(progress);
                self.idle = 0;
                false
            }
        }
    }

    /// The configured trip threshold.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_limit_flat_observations() {
        let mut dog = Watchdog::new(5);
        assert!(!dog.observe(10));
        for _ in 0..4 {
            assert!(!dog.observe(10));
        }
        assert!(dog.observe(10));
        // Once tripped it stays tripped while the metric is flat.
        assert!(dog.observe(10));
    }

    #[test]
    fn progress_resets_the_counter() {
        let mut dog = Watchdog::new(2);
        assert!(!dog.observe(0));
        assert!(!dog.observe(0));
        assert!(!dog.observe(1)); // advanced just in time
        assert!(!dog.observe(1));
        assert!(dog.observe(1));
    }

    #[test]
    fn any_movement_counts_as_progress() {
        // The metric is *supposed* to be monotone, but the watchdog only
        // requires movement — a driver that recounts a shrinking queue
        // still demonstrates liveness.
        let mut dog = Watchdog::new(2);
        assert!(!dog.observe(5));
        assert!(!dog.observe(3));
        assert!(!dog.observe(3));
        assert!(dog.observe(3));
    }

    #[test]
    #[should_panic(expected = "watchdog limit must be positive")]
    fn zero_limit_rejected() {
        let _ = Watchdog::new(0);
    }
}
