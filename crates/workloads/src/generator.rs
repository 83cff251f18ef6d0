//! The stochastic trace generator.

use mn_sim::{SimDuration, SimRng};

use crate::profile::WorkloadProfile;

/// Cache-line granularity of references (the LLC miss stream is 64 B).
pub(crate) const LINE_BYTES: u64 = 64;

/// One memory reference in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Time since the previous reference was offered.
    pub gap: SimDuration,
    /// Byte address (line-aligned) within the port's address space.
    pub addr: u64,
    /// True for writes.
    pub is_write: bool,
}

/// An infinite, deterministic stream of [`MemRef`]s following a
/// [`WorkloadProfile`].
///
/// The address process mixes three behaviours:
/// 1. with `sequential_prob`, continue the current run (next 64 B line);
/// 2. otherwise jump — with `hot_prob` into the Zipf-visited hot region
///    (the first `hot_fraction` of the footprint), else uniformly into the
///    whole footprint.
///
/// Inter-arrival gaps are exponential with mean `1/intensity`, the standard
/// open-loop offered-load model.
///
/// # Example
///
/// ```
/// use mn_workloads::{TraceGenerator, Workload};
///
/// let mut gen = TraceGenerator::new(Workload::Kmeans.profile(), 1 << 26, 7);
/// let refs: Vec<_> = gen.by_ref().take(1000).collect();
/// let reads = refs.iter().filter(|r| !r.is_write).count();
/// assert!(reads > 700, "KMEANS is read-heavy, got {reads}");
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    footprint_lines: u64,
    hot_lines: u64,
    rng: SimRng,
    cursor: u64,
}

impl TraceGenerator {
    /// Creates a generator over `address_space_bytes` of per-port address
    /// space, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`WorkloadProfile::validate`])
    /// or the footprint is smaller than one line.
    pub fn new(profile: WorkloadProfile, address_space_bytes: u64, seed: u64) -> TraceGenerator {
        profile.validate();
        let total_lines = address_space_bytes / LINE_BYTES;
        let footprint_lines = ((total_lines as f64 * profile.footprint_fraction) as u64).max(1);
        let hot_lines = ((footprint_lines as f64 * profile.hot_fraction) as u64).max(1);
        assert!(footprint_lines >= 1, "footprint smaller than one line");
        let mut rng = SimRng::seed_from(seed);
        let cursor = rng.below(footprint_lines);
        TraceGenerator {
            profile,
            footprint_lines,
            hot_lines,
            rng,
            cursor,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn next_line(&mut self) -> u64 {
        if self.rng.chance(self.profile.sequential_prob) {
            self.cursor = (self.cursor + 1) % self.footprint_lines;
        } else if self.rng.chance(self.profile.hot_prob) {
            self.cursor = self.rng.zipf(self.hot_lines, 1.0);
        } else {
            self.cursor = self.rng.below(self.footprint_lines);
        }
        self.cursor
    }

    fn next_gap(&mut self) -> SimDuration {
        // Exponential inter-arrival via inverse transform; clamp the
        // pathological u=0 case.
        let u = self.rng.unit().max(1e-12);
        let gap_ps = -u.ln() * self.profile.mean_gap_ps();
        SimDuration::from_ps(gap_ps.round() as u64)
    }
}

impl Iterator for TraceGenerator {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let gap = self.next_gap();
        let line = self.next_line();
        let is_write = !self.rng.chance(self.profile.read_fraction);
        Some(MemRef {
            gap,
            addr: line * LINE_BYTES,
            is_write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;

    const SPACE: u64 = 1 << 28; // 256 MB per port for tests

    fn take(w: Workload, n: usize, seed: u64) -> Vec<MemRef> {
        TraceGenerator::new(w.profile(), SPACE, seed)
            .take(n)
            .collect()
    }

    #[test]
    fn determinism() {
        assert_eq!(take(Workload::Dct, 500, 3), take(Workload::Dct, 500, 3));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(take(Workload::Dct, 100, 1), take(Workload::Dct, 100, 2));
    }

    #[test]
    fn addresses_in_bounds_and_aligned() {
        for r in take(Workload::Bit, 2000, 9) {
            assert!(r.addr < SPACE);
            assert_eq!(r.addr % LINE_BYTES, 0);
        }
    }

    #[test]
    fn read_fraction_calibrated() {
        for w in Workload::ALL {
            let refs = take(w, 20_000, 11);
            let reads = refs.iter().filter(|r| !r.is_write).count() as f64 / 20_000.0;
            let target = w.profile().read_fraction;
            assert!(
                (reads - target).abs() < 0.02,
                "{w}: got {reads}, want {target}"
            );
        }
    }

    #[test]
    fn intensity_calibrated() {
        for w in [Workload::Nw, Workload::Backprop] {
            let refs = take(w, 20_000, 13);
            let mean_gap: f64 = refs.iter().map(|r| r.gap.as_ps() as f64).sum::<f64>() / 20_000.0;
            let target = w.profile().mean_gap_ps();
            assert!(
                (mean_gap - target).abs() / target < 0.05,
                "{w}: mean gap {mean_gap}, want {target}"
            );
        }
    }

    #[test]
    fn sequential_runs_present() {
        let refs = take(Workload::Matrixmul, 5000, 17);
        let sequential = refs
            .windows(2)
            .filter(|w| w[1].addr == w[0].addr + LINE_BYTES)
            .count() as f64
            / 4999.0;
        // MATRIXMUL has sequential_prob 0.8.
        assert!(
            (0.7..0.9).contains(&sequential),
            "sequential fraction {sequential}"
        );
    }

    #[test]
    fn hot_region_is_hotter() {
        let p = Workload::Hotspot.profile(); // hot 5% with 50% of jumps
        let refs: Vec<MemRef> = TraceGenerator::new(p, SPACE, 23).take(50_000).collect();
        let hot_bound = (SPACE as f64 * p.hot_fraction) as u64;
        let hot_hits = refs.iter().filter(|r| r.addr < hot_bound).count() as f64 / 50_000.0;
        // At least 5x overrepresented relative to its size.
        assert!(hot_hits > p.hot_fraction * 5.0, "hot share {hot_hits}");
    }

    #[test]
    fn footprint_fraction_limits_range() {
        let mut p = Workload::Bit.profile();
        p.footprint_fraction = 0.25;
        let refs: Vec<MemRef> = TraceGenerator::new(p, SPACE, 5).take(5000).collect();
        let bound = SPACE / 4;
        assert!(refs.iter().all(|r| r.addr < bound));
    }

    #[test]
    fn tiny_address_space_works() {
        let mut g = TraceGenerator::new(Workload::Bit.profile(), 64, 1);
        for _ in 0..100 {
            assert_eq!(g.next().unwrap().addr, 0);
        }
    }
}
