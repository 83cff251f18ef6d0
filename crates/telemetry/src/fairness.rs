//! Service-share fairness: Jain's index over per-source-cube shares.

use mn_sim::SimDuration;

/// Jain's fairness index over a set of shares:
/// `(Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one party gets everything) to `1.0` (perfectly
/// equal). Vacuously 1.0 for empty or all-zero inputs.
///
/// # Example
///
/// ```
/// use mn_telemetry::jain_index;
///
/// assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
/// ```
pub fn jain_index(shares: &[f64]) -> f64 {
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if shares.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Per-source-cube service accounting: completions and summed request
/// latency, folded into effective service shares.
///
/// All cubes of a port drain the same request stream for the same wall
/// time, so raw completion counts are nearly uniform by construction;
/// the "parking lot" unfairness of chain-like topologies (paper §4)
/// shows up as *latency* disparity. The share of cube `i` is therefore
/// its effective service rate — completions divided by mean request
/// latency — which deflates for cubes starved by arbitration.
#[derive(Debug, Clone, Default)]
pub struct FairnessTracker {
    completions: Vec<u64>,
    latency_ps: Vec<u128>,
}

impl FairnessTracker {
    /// Creates a tracker for `nodes` sources (cube node ids index it
    /// directly; sources that never complete a request are skipped in
    /// the share computation).
    pub fn new(nodes: usize) -> Self {
        FairnessTracker {
            completions: vec![0; nodes],
            latency_ps: vec![0; nodes],
        }
    }

    /// Records one completed request served by `node` with the given
    /// end-to-end latency.
    #[inline]
    pub fn record(&mut self, node: usize, latency: SimDuration) {
        if node < self.completions.len() {
            self.completions[node] += 1;
            self.latency_ps[node] += u128::from(latency.as_ps());
        }
    }

    /// Merges another tracker (e.g. from a sibling port) into this one,
    /// growing to cover the longer of the two.
    pub fn merge(&mut self, other: &FairnessTracker) {
        if other.completions.len() > self.completions.len() {
            self.completions.resize(other.completions.len(), 0);
            self.latency_ps.resize(other.latency_ps.len(), 0);
        }
        for (i, (&c, &l)) in other.completions.iter().zip(&other.latency_ps).enumerate() {
            self.completions[i] += c;
            self.latency_ps[i] += l;
        }
    }

    /// Effective service shares (completions / mean latency in ns) for
    /// every source with at least one completion.
    pub fn shares(&self) -> Vec<f64> {
        self.completions
            .iter()
            .zip(&self.latency_ps)
            .filter(|(&c, _)| c > 0)
            .map(|(&c, &l)| {
                let mean_ns = l as f64 / c as f64 / 1_000.0;
                c as f64 / mean_ns
            })
            .collect()
    }

    /// Jain's fairness index over [`FairnessTracker::shares`].
    pub fn jain(&self) -> f64 {
        jain_index(&self.shares())
    }

    /// Number of sources with at least one completion.
    pub fn active_sources(&self) -> usize {
        self.completions.iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One of n hogging everything => 1/n.
        assert!((jain_index(&[3.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // 2:1 split between two parties: (3)^2 / (2*5) = 0.9.
        assert!((jain_index(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn equal_service_is_perfectly_fair() {
        let mut t = FairnessTracker::new(4);
        for node in 1..4 {
            for _ in 0..10 {
                t.record(node, SimDuration::from_ns(100));
            }
        }
        assert_eq!(t.active_sources(), 3);
        assert!((t.jain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_disparity_deflates_the_index() {
        let mut t = FairnessTracker::new(3);
        for _ in 0..10 {
            t.record(1, SimDuration::from_ns(50)); // near cube: fast
            t.record(2, SimDuration::from_ns(500)); // far cube: starved
        }
        let jain = t.jain();
        assert!(jain < 0.7, "expected unfairness, got {jain}");
        // Shares are rates: the fast cube's share is 10x the slow one's.
        let shares = t.shares();
        assert!((shares[0] / shares[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts_and_grows() {
        let mut a = FairnessTracker::new(2);
        a.record(1, SimDuration::from_ns(100));
        let mut b = FairnessTracker::new(4);
        b.record(1, SimDuration::from_ns(100));
        b.record(3, SimDuration::from_ns(100));
        a.merge(&b);
        assert_eq!(a.active_sources(), 2);
        assert_eq!(a.completions, [0, 2, 0, 1]);
        assert_eq!(a.latency_ps, [0, 200_000, 0, 100_000]);
    }

    #[test]
    fn out_of_range_node_is_ignored() {
        let mut t = FairnessTracker::new(2);
        t.record(9, SimDuration::from_ns(1));
        assert_eq!(t.active_sources(), 0);
    }
}
