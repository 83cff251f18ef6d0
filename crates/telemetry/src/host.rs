//! Closed-loop host telemetry: window-size time series and per-policy
//! RTT/goodput rollups.
//!
//! When a port runs with a closed-loop window policy (`mn-host`) and
//! telemetry is on, it records every completed request here: the window
//! size in force at completion, the measured round-trip time, and whether
//! the response carried an ECN mark. The rollup rides on
//! [`crate::TelemetrySummary`] — like the rest of the telemetry layer it
//! never exists in untraced runs, so the hot path pays nothing.

/// Buckets in a [`WindowSeries`] — matches `TimeSeries` so the two plot
/// on the same axis.
const WINDOW_BUCKETS: usize = 64;

use mn_sim::{Accumulator, SimDuration};

/// A bounded time series of congestion-window sizes.
///
/// Same self-widening scheme as [`crate::TimeSeries`]: 64 fixed buckets;
/// a sample past the window doubles the bucket width by merging adjacent
/// pairs, so recording never allocates. Each bucket keeps the *sum and
/// count* of window samples (not busy time), yielding the mean window per
/// bucket — the shape AIMD sawteeth and ECN backoff show up in.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    sum: [u64; WINDOW_BUCKETS],
    count: [u64; WINDOW_BUCKETS],
    width_ps: u64,
}

impl WindowSeries {
    /// Creates a series whose buckets start `width_ps` wide (minimum 1).
    pub fn new(width_ps: u64) -> Self {
        WindowSeries {
            sum: [0; WINDOW_BUCKETS],
            count: [0; WINDOW_BUCKETS],
            width_ps: width_ps.max(1),
        }
    }

    /// Records the window size in force at time `at_ps`, widening the
    /// window as needed.
    #[inline]
    pub fn record(&mut self, at_ps: u64, window: u32) {
        let mut idx = at_ps / self.width_ps;
        while idx >= WINDOW_BUCKETS as u64 {
            self.widen();
            idx = at_ps / self.width_ps;
        }
        self.sum[idx as usize] += u64::from(window);
        self.count[idx as usize] += 1;
    }

    fn widen(&mut self) {
        for i in 0..WINDOW_BUCKETS / 2 {
            self.sum[i] = self.sum[2 * i] + self.sum[2 * i + 1];
            self.count[i] = self.count[2 * i] + self.count[2 * i + 1];
        }
        for b in &mut self.sum[WINDOW_BUCKETS / 2..] {
            *b = 0;
        }
        for b in &mut self.count[WINDOW_BUCKETS / 2..] {
            *b = 0;
        }
        self.width_ps *= 2;
    }

    /// Merges another series into this one, widening the narrower series
    /// until the bucket widths agree (both widths are the initial width
    /// times a power of two, so they always meet).
    pub fn merge(&mut self, other: &WindowSeries) {
        let mut other = other.clone();
        while self.width_ps < other.width_ps {
            self.widen();
        }
        while other.width_ps < self.width_ps {
            other.widen();
        }
        for i in 0..WINDOW_BUCKETS {
            self.sum[i] += other.sum[i];
            self.count[i] += other.count[i];
        }
    }

    /// Iterates `(bucket_start_ps, mean_window)` over buckets with at
    /// least one sample.
    pub fn samples(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let width = self.width_ps;
        self.sum
            .iter()
            .zip(&self.count)
            .enumerate()
            .filter(|(_, (_, &n))| n > 0)
            .map(move |(i, (&s, &n))| (i as u64 * width, s as f64 / n as f64))
    }

    /// Mean window over the last half of the populated buckets — the
    /// steady-state window after the policy's opening transient.
    pub fn steady_window(&self) -> f64 {
        let populated: Vec<(u64, u64)> = self
            .sum
            .iter()
            .zip(&self.count)
            .filter(|(_, &n)| n > 0)
            .map(|(&s, &n)| (s, n))
            .collect();
        if populated.is_empty() {
            return f64::NAN;
        }
        let tail = &populated[populated.len() / 2..];
        let (sum, count) = tail
            .iter()
            .fold((0u64, 0u64), |(s, n), &(bs, bn)| (s + bs, n + bn));
        sum as f64 / count as f64
    }

    /// Total samples recorded.
    pub fn total_samples(&self) -> u64 {
        self.count.iter().sum()
    }
}

impl Default for WindowSeries {
    fn default() -> Self {
        // 2^14 ps initial width: a default 20k-request run widens only a
        // handful of times.
        WindowSeries::new(1 << 14)
    }
}

/// Mergeable closed-loop rollup for one port (merged across ports into
/// the run's [`crate::TelemetrySummary`]).
#[derive(Debug, Clone, Default)]
pub struct HostSummary {
    /// Window-size-over-time series.
    pub window: WindowSeries,
    /// Round-trip time of completed requests (offer to response).
    pub rtt: Accumulator,
    /// Completed requests observed.
    pub responses: u64,
    /// Completed requests whose response carried an ECN mark.
    pub marked_responses: u64,
    /// Largest window ever in force at a completion.
    pub peak_window: u32,
    /// Smallest window ever in force at a completion (`u32::MAX` until
    /// the first sample).
    pub min_window: u32,
}

impl HostSummary {
    /// Creates an empty rollup.
    pub fn new() -> Self {
        HostSummary {
            min_window: u32::MAX,
            ..HostSummary::default()
        }
    }

    /// Records one completed request: the window in force, the measured
    /// RTT, and whether the response was ECN-marked.
    #[inline]
    pub fn record(&mut self, at_ps: u64, window: u32, rtt: SimDuration, marked: bool) {
        self.window.record(at_ps, window);
        self.rtt.record(rtt);
        self.responses += 1;
        self.marked_responses += u64::from(marked);
        self.peak_window = self.peak_window.max(window);
        self.min_window = self.min_window.min(window);
    }

    /// Merges another port's rollup into this one.
    pub fn merge(&mut self, other: &HostSummary) {
        self.window.merge(&other.window);
        self.rtt.merge(&other.rtt);
        self.responses += other.responses;
        self.marked_responses += other.marked_responses;
        self.peak_window = self.peak_window.max(other.peak_window);
        self.min_window = self.min_window.min(other.min_window);
    }

    /// Fraction of completions whose response was marked, in `[0, 1]`
    /// (NaN before the first completion).
    pub fn marked_fraction(&self) -> f64 {
        self.marked_responses as f64 / self.responses as f64
    }

    /// Steady-state mean window (last half of the run).
    pub fn steady_window(&self) -> f64 {
        self.window.steady_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_means_per_bucket() {
        let mut s = WindowSeries::new(1_000);
        s.record(0, 4);
        s.record(100, 8);
        s.record(1_500, 2);
        let samples: Vec<_> = s.samples().collect();
        assert_eq!(samples, vec![(0, 6.0), (1_000, 2.0)]);
        assert_eq!(s.total_samples(), 3);
    }

    #[test]
    fn series_widens_preserving_counts() {
        let mut s = WindowSeries::new(10);
        s.record(5, 4);
        s.record(15, 8);
        s.record(640, 16); // past the window: width doubles to 20
        assert_eq!(s.width_ps, 20);
        assert_eq!(s.total_samples(), 3);
        let samples: Vec<_> = s.samples().collect();
        assert_eq!(samples[0], (0, 6.0)); // merged pair
    }

    #[test]
    fn steady_window_uses_tail() {
        let mut s = WindowSeries::new(100);
        // Opening transient at small windows, steady tail at 32.
        s.record(0, 1);
        s.record(100, 2);
        s.record(200, 32);
        s.record(300, 32);
        assert!((s.steady_window() - 32.0).abs() < 1e-9);
        assert!(WindowSeries::new(1).steady_window().is_nan());
    }

    #[test]
    fn merge_aligns_widths() {
        let mut a = WindowSeries::new(10);
        a.record(5, 4);
        let mut b = WindowSeries::new(10);
        b.record(640, 8); // widened to 20
        a.merge(&b);
        assert_eq!(a.width_ps, 20);
        assert_eq!(a.total_samples(), 2);
    }

    #[test]
    fn summary_rollup_and_merge() {
        let mut a = HostSummary::new();
        a.record(0, 8, SimDuration::from_ns(100), false);
        a.record(1_000, 16, SimDuration::from_ns(300), true);
        assert_eq!(a.responses, 2);
        assert_eq!(a.peak_window, 16);
        assert_eq!(a.min_window, 8);
        assert!((a.marked_fraction() - 0.5).abs() < 1e-12);
        assert!((a.rtt.mean_ns() - 200.0).abs() < 1e-9);

        let mut b = HostSummary::new();
        b.record(0, 2, SimDuration::from_ns(500), true);
        a.merge(&b);
        assert_eq!(a.responses, 3);
        assert_eq!(a.min_window, 2);
        assert_eq!(a.marked_responses, 2);
    }

    #[test]
    fn empty_summary_is_nan_fraction() {
        let s = HostSummary::new();
        assert!(s.marked_fraction().is_nan());
        assert!(s.steady_window().is_nan());
        assert_eq!(s.min_window, u32::MAX);
    }
}
