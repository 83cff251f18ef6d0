//! Statistics primitives: counters, accumulators, running moments, and
//! log-scale latency histograms.
//!
//! These types are the measurement substrate for the paper's figures: the
//! latency breakdowns of Fig. 5 are three [`Accumulator`]s per configuration
//! (to-memory, in-memory, from-memory), the energy breakdown of Fig. 15 is a
//! set of [`Counter`]s, and queue-depth distributions use [`Histogram`].

use std::fmt;

use crate::time::SimDuration;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use mn_sim::Counter;
///
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates a stream of durations and reports sum / count / mean / min / max.
///
/// # Example
///
/// ```
/// use mn_sim::{Accumulator, SimDuration};
///
/// let mut acc = Accumulator::new();
/// acc.record(SimDuration::from_ns(10));
/// acc.record(SimDuration::from_ns(30));
/// assert_eq!(acc.mean(), SimDuration::from_ns(20));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulator {
    sum_ps: u128,
    count: u64,
    min_ps: u64,
    max_ps: u64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            sum_ps: 0,
            count: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        self.sum_ps += ps as u128;
        self.count += 1;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.sum_ps += other.sum_ps;
        self.count += other.count;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_ps(u64::try_from(self.sum_ps).unwrap_or(u64::MAX))
    }

    /// Arithmetic mean, or [`SimDuration::ZERO`] when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// Mean in fractional nanoseconds (convenient for reporting).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ps as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_ps(self.min_ps))
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_ps(self.max_ps))
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact internal state `(sum_ps, count, min_ps, max_ps)`, for
    /// lossless serialization (e.g. the campaign result cache).
    pub fn raw_parts(&self) -> (u128, u64, u64, u64) {
        (self.sum_ps, self.count, self.min_ps, self.max_ps)
    }

    /// Rebuilds an accumulator from [`Accumulator::raw_parts`] output.
    pub fn from_raw_parts(sum_ps: u128, count: u64, min_ps: u64, max_ps: u64) -> Accumulator {
        Accumulator {
            sum_ps,
            count,
            min_ps,
            max_ps,
        }
    }
}

/// Welford online mean/variance over `f64` samples.
///
/// Used for confidence checks on workload generators and for queue-depth
/// statistics where the sample is not a duration.
///
/// # Example
///
/// ```
/// use mn_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty instance.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
}

/// A power-of-two bucketed histogram of durations.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` picoseconds (bucket 0 additionally
/// includes zero). Coarse but allocation-free and adequate for spotting
/// queuing-latency tail shifts.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// A histogram able to hold any `u64` picosecond value (64 buckets).
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let idx = if ps == 0 {
            0
        } else {
            63 - ps.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Iterator over `(bucket_floor, count)` for non-empty buckets, where
    /// `bucket_floor` is the inclusive lower bound of the bucket.
    pub fn iter(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let floor = if i == 0 { 0 } else { 1u64 << i };
                (SimDuration::from_ps(floor), c)
            })
    }

    /// The raw bucket counts (64 entries), for lossless serialization.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from [`Histogram::bucket_counts`] output;
    /// shorter slices are zero-padded to 64 buckets. `None` when there
    /// are more than 64 counts or their total overflows a `u64`.
    pub fn from_bucket_counts(counts: &[u64]) -> Option<Histogram> {
        if counts.len() > 64 {
            return None;
        }
        let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c))?;
        let mut buckets = vec![0; 64];
        buckets[..counts.len()].copy_from_slice(counts);
        Some(Histogram { buckets, total })
    }

    /// An approximate quantile: the lower bound of the bucket containing the
    /// `q`-th sample. Returns `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let floor = if i == 0 { 0 } else { 1u64 << i };
                return Some(SimDuration::from_ps(floor));
            }
        }
        None
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(format!("{c}"), "10");
    }

    #[test]
    fn accumulator_basics() {
        let mut a = Accumulator::new();
        assert!(a.is_empty());
        assert_eq!(a.mean(), SimDuration::ZERO);
        a.record(SimDuration::from_ns(10));
        a.record(SimDuration::from_ns(20));
        a.record(SimDuration::from_ns(60));
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), SimDuration::from_ns(30));
        assert_eq!(a.min(), Some(SimDuration::from_ns(10)));
        assert_eq!(a.max(), Some(SimDuration::from_ns(60)));
        assert_eq!(a.sum(), SimDuration::from_ns(90));
        assert!((a.mean_ns() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = Accumulator::new();
        a.record(SimDuration::from_ns(1));
        let mut b = Accumulator::new();
        b.record(SimDuration::from_ns(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_ns(2));
    }

    #[test]
    fn running_stats_welford() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.quantile(0.5).is_none());
        h.record(SimDuration::from_ps(0));
        h.record(SimDuration::from_ps(1));
        h.record(SimDuration::from_ps(1024));
        h.record(SimDuration::from_ps(1500));
        assert_eq!(h.total(), 4);
        // Two samples in bucket 0/1 territory, two in the 1024 bucket.
        let q50 = h.quantile(0.5).unwrap();
        assert!(q50 <= SimDuration::from_ps(1));
        let q100 = h.quantile(1.0).unwrap();
        assert_eq!(q100, SimDuration::from_ps(1024));
        assert!(h.iter().count() >= 2);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_rejects_bad_quantile() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_ps(100));
        let mut b = Histogram::new();
        b.record(SimDuration::from_ps(100));
        b.record(SimDuration::from_ps(5000));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.quantile(1.0), Some(SimDuration::from_ps(4096)));
    }
}
