//! Bounded, allocation-free link and buffer metrics.

/// Number of buckets in a [`TimeSeries`] window.
const SERIES_BUCKETS: usize = 64;

/// Depth buckets in [`QueueDepthStats`]: exact depths 0..=63 plus one
/// overflow bucket for anything deeper.
const DEPTH_BUCKETS: usize = 65;

/// A bounded busy-time series for one link (or any resource with a
/// busy/idle duty cycle).
///
/// The window is a fixed 64 buckets; whenever a sample lands past the end
/// the bucket width doubles by merging adjacent pairs in place, so
/// recording never allocates no matter how long the run. Utilization per
/// bucket is busy time divided by bucket width.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    busy_ps: [u64; SERIES_BUCKETS],
    width_ps: u64,
}

impl TimeSeries {
    /// Creates a series whose buckets start `width_ps` wide (minimum 1).
    pub fn new(width_ps: u64) -> Self {
        TimeSeries {
            busy_ps: [0; SERIES_BUCKETS],
            width_ps: width_ps.max(1),
        }
    }

    /// Attributes `busy_ps` of busy time to the bucket containing
    /// `at_ps`, widening the window as needed.
    #[inline]
    pub fn record(&mut self, at_ps: u64, busy_ps: u64) {
        let mut idx = at_ps / self.width_ps;
        while idx >= SERIES_BUCKETS as u64 {
            self.widen();
            idx = at_ps / self.width_ps;
        }
        self.busy_ps[idx as usize] += busy_ps;
    }

    fn widen(&mut self) {
        for i in 0..SERIES_BUCKETS / 2 {
            self.busy_ps[i] = self.busy_ps[2 * i] + self.busy_ps[2 * i + 1];
        }
        for b in &mut self.busy_ps[SERIES_BUCKETS / 2..] {
            *b = 0;
        }
        self.width_ps *= 2;
    }

    /// Iterates `(bucket_start_ps, utilization)` over the window.
    /// Utilization is clamped to 1.0: busy time is attributed to the
    /// bucket where the busy period *starts*, so a period straddling a
    /// bucket edge can nominally overfill its bucket.
    pub fn samples(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let width = self.width_ps;
        self.busy_ps
            .iter()
            .enumerate()
            .map(move |(i, &busy)| (i as u64 * width, (busy as f64 / width as f64).min(1.0)))
    }

    /// The highest per-bucket utilization in the window (0..=1).
    pub fn peak(&self) -> f64 {
        let max_busy = self.busy_ps.iter().copied().max().unwrap_or(0);
        (max_busy as f64 / self.width_ps as f64).min(1.0)
    }
}

/// Peak and distribution of buffer-occupancy samples.
///
/// Each call to [`QueueDepthStats::record`] is one observation of a
/// queue's depth (taken when a packet is enqueued). Depths 0..=63 are
/// counted exactly; anything deeper lands in a single overflow bucket.
#[derive(Debug, Clone)]
pub struct QueueDepthStats {
    peak: u64,
    total: u64,
    hist: [u64; DEPTH_BUCKETS],
}

impl QueueDepthStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        QueueDepthStats {
            peak: 0,
            total: 0,
            hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Records one depth observation.
    #[inline]
    pub fn record(&mut self, depth: u64) {
        self.peak = self.peak.max(depth);
        self.total += 1;
        let idx = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.hist[idx] += 1;
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &QueueDepthStats) {
        self.peak = self.peak.max(other.peak);
        self.total += other.total;
        for (mine, theirs) in self.hist.iter_mut().zip(&other.hist) {
            *mine += theirs;
        }
    }

    /// Deepest occupancy ever observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The depth at quantile `q` (the smallest depth whose cumulative
    /// count reaches the `q`-th observation), or 0 when empty. Depths in
    /// the overflow bucket report the exact peak instead.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (depth, &count) in self.hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if depth == DEPTH_BUCKETS - 1 {
                    self.peak
                } else {
                    depth as u64
                };
            }
        }
        self.peak
    }

    /// The 99th-percentile depth.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl Default for QueueDepthStats {
    fn default() -> Self {
        QueueDepthStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_and_reports_utilization() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(0, 500);
        ts.record(100, 250);
        ts.record(1_500, 1_000);
        assert_eq!(ts.width_ps, 1_000);
        let samples: Vec<_> = ts.samples().collect();
        assert_eq!(samples[0], (0, 0.75));
        assert_eq!(samples[1], (1_000, 1.0));
        assert_eq!(ts.peak(), 1.0);
        assert_eq!(ts.busy_ps.iter().sum::<u64>(), 1_750);
    }

    #[test]
    fn series_widens_by_merging_pairs() {
        let mut ts = TimeSeries::new(10);
        ts.record(5, 10); // bucket 0
        ts.record(15, 10); // bucket 1
                           // Lands past the 64-bucket window: width doubles to 20 and the
                           // two old buckets merge into one.
        ts.record(640, 7);
        assert_eq!(ts.width_ps, 20);
        let samples: Vec<_> = ts.samples().collect();
        assert_eq!(samples[0], (0, 1.0));
        assert_eq!(samples[32], (640, 7.0 / 20.0));
        assert_eq!(ts.busy_ps.iter().sum::<u64>(), 27);
    }

    #[test]
    fn series_widens_repeatedly_without_losing_busy_time() {
        let mut ts = TimeSeries::new(1);
        for at in [0u64, 1 << 10, 1 << 16, 1 << 20] {
            ts.record(at, 3);
        }
        assert_eq!(ts.busy_ps.iter().sum::<u64>(), 12);
        assert!(ts.width_ps >= (1 << 20) / 64);
    }

    #[test]
    fn depth_stats_track_peak_and_quantiles() {
        let mut qd = QueueDepthStats::new();
        assert_eq!(qd.quantile(0.5), 0);
        for _ in 0..98 {
            qd.record(1);
        }
        qd.record(5);
        qd.record(40);
        assert_eq!(qd.peak(), 40);
        assert_eq!(qd.total(), 100);
        assert_eq!(qd.quantile(0.5), 1);
        assert_eq!(qd.p99(), 5);
        assert_eq!(qd.quantile(1.0), 40);
    }

    #[test]
    fn depth_stats_overflow_reports_peak() {
        let mut qd = QueueDepthStats::new();
        qd.record(500);
        assert_eq!(qd.quantile(1.0), 500);
        assert_eq!(qd.p99(), 500);
    }

    #[test]
    fn depth_stats_merge() {
        let mut a = QueueDepthStats::new();
        a.record(2);
        let mut b = QueueDepthStats::new();
        b.record(7);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.peak(), 7);
        assert_eq!(a.quantile(1.0), 7);
    }
}
