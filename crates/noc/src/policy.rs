//! Injection-time routing policies.
//!
//! §5.2/§5.3: always routing writes down a skip list's slow chain hurts
//! write-burst workloads (BACKPROP) and read-modify-write patterns. The
//! paper monitors write traffic at the system port "with some hysteresis"
//! and lets writes use the short skip paths while a burst lasts. The
//! [`WriteBurstDetector`] implements that monitor; `mn-core` consults it
//! when choosing each write's [`mn_topo::PathClass`].

use std::collections::VecDeque;

/// Sliding-window write-burst detector with hysteresis.
///
/// Tracks the write fraction of the last `window` injected requests. Burst
/// mode engages when the fraction rises above `enter_threshold` and
/// disengages only when it falls below `exit_threshold` (< enter), so the
/// policy does not flap at the boundary.
///
/// # Example
///
/// ```
/// use mn_noc::WriteBurstDetector;
///
/// let mut d = WriteBurstDetector::new(8, 0.7, 0.4);
/// for _ in 0..8 { d.observe(true); }   // all writes
/// assert!(d.in_burst());
/// for _ in 0..3 { d.observe(false); }  // a few reads: still in burst
/// assert!(d.in_burst());
/// for _ in 0..5 { d.observe(false); }  // burst drains
/// assert!(!d.in_burst());
/// ```
#[derive(Debug, Clone)]
pub struct WriteBurstDetector {
    window: usize,
    enter_threshold: f64,
    exit_threshold: f64,
    recent: VecDeque<bool>,
    writes_in_window: usize,
    in_burst: bool,
}

impl WriteBurstDetector {
    /// Creates a detector over a `window`-request sliding window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, either threshold is outside `[0, 1]`, or
    /// `exit_threshold >= enter_threshold` (hysteresis would be inverted).
    pub fn new(window: usize, enter_threshold: f64, exit_threshold: f64) -> WriteBurstDetector {
        assert!(window > 0, "window must be positive");
        assert!(
            (0.0..=1.0).contains(&enter_threshold) && (0.0..=1.0).contains(&exit_threshold),
            "thresholds must be within [0, 1]"
        );
        assert!(
            exit_threshold < enter_threshold,
            "hysteresis requires exit < enter"
        );
        WriteBurstDetector {
            window,
            enter_threshold,
            exit_threshold,
            recent: VecDeque::with_capacity(window),
            writes_in_window: 0,
            in_burst: false,
        }
    }

    /// The paper-tuned default: a 64-request window entering burst mode at
    /// 60% writes and leaving below 35%.
    pub fn paper_default() -> WriteBurstDetector {
        WriteBurstDetector::new(64, 0.6, 0.35)
    }

    /// Records one injected request (`is_write`) and updates burst state.
    pub fn observe(&mut self, is_write: bool) {
        if self.recent.len() == self.window && self.recent.pop_front() == Some(true) {
            self.writes_in_window -= 1;
        }
        self.recent.push_back(is_write);
        if is_write {
            self.writes_in_window += 1;
        }
        let frac = self.write_fraction();
        if self.in_burst {
            if frac < self.exit_threshold {
                self.in_burst = false;
            }
        } else if frac > self.enter_threshold && self.recent.len() >= self.window / 2 {
            self.in_burst = true;
        }
    }

    /// Current write fraction of the window (0 when empty).
    pub(crate) fn write_fraction(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.writes_in_window as f64 / self.recent.len() as f64
        }
    }

    /// True while a write burst is in progress — writes may then use the
    /// fast (skip-link) paths.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_out_of_burst() {
        let d = WriteBurstDetector::paper_default();
        assert!(!d.in_burst());
        assert_eq!(d.write_fraction(), 0.0);
    }

    #[test]
    fn enters_on_sustained_writes() {
        let mut d = WriteBurstDetector::new(10, 0.6, 0.3);
        for _ in 0..10 {
            d.observe(true);
        }
        assert!(d.in_burst());
        assert!((d.write_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn needs_half_window_before_entering() {
        let mut d = WriteBurstDetector::new(10, 0.6, 0.3);
        d.observe(true);
        d.observe(true);
        // 100% writes but only 2 observations: not yet a burst.
        assert!(!d.in_burst());
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut d = WriteBurstDetector::new(10, 0.6, 0.3);
        for _ in 0..10 {
            d.observe(true);
        }
        assert!(d.in_burst());
        // Drop to 50% writes: between thresholds, stays in burst.
        for _ in 0..5 {
            d.observe(false);
        }
        assert!(d.in_burst());
        // Drop below 30%: leaves burst.
        for _ in 0..4 {
            d.observe(false);
        }
        assert!(!d.in_burst());
        // Climbing back to 50% does not re-enter.
        for _ in 0..3 {
            d.observe(true);
        }
        assert!(!d.in_burst());
    }

    #[test]
    fn window_slides() {
        let mut d = WriteBurstDetector::new(4, 0.6, 0.3);
        for _ in 0..4 {
            d.observe(true);
        }
        for _ in 0..4 {
            d.observe(false);
        }
        assert_eq!(d.write_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exit < enter")]
    fn inverted_hysteresis_rejected() {
        let _ = WriteBurstDetector::new(4, 0.3, 0.6);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = WriteBurstDetector::new(0, 0.6, 0.3);
    }
}
