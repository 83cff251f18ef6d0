//! The eight workload proxies and their stream parameters.

use std::fmt;

/// The workloads of the paper's evaluation (AMD SDK + Rodinia suites, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Rodinia back-propagation: by far the most write-intensive workload.
    Backprop,
    /// AMD SDK bitonic sort: balanced reads/writes, high load.
    Bit,
    /// AMD SDK buffer bandwidth: balanced, high load.
    Buff,
    /// AMD SDK DCT: balanced, high load, strong spatial locality.
    Dct,
    /// Rodinia HotSpot: balanced, moderate load, hot working set.
    Hotspot,
    /// Rodinia k-means: the most read-intensive workload.
    Kmeans,
    /// AMD SDK matrix multiply: read-heavy, strong locality.
    Matrixmul,
    /// Rodinia Needleman–Wunsch: read-leaning and the lowest network load.
    Nw,
}

impl Workload {
    /// All eight workloads in the paper's figure order.
    pub const ALL: [Workload; 8] = [
        Workload::Backprop,
        Workload::Bit,
        Workload::Buff,
        Workload::Dct,
        Workload::Hotspot,
        Workload::Kmeans,
        Workload::Matrixmul,
        Workload::Nw,
    ];

    /// The uppercase label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            Workload::Backprop => "BACKPROP",
            Workload::Bit => "BIT",
            Workload::Buff => "BUFF",
            Workload::Dct => "DCT",
            Workload::Hotspot => "HOTSPOT",
            Workload::Kmeans => "KMEANS",
            Workload::Matrixmul => "MATRIXMUL",
            Workload::Nw => "NW",
        }
    }

    /// The calibrated stream parameters for this workload (see the
    /// crate-level docs for the paper's characterization each profile
    /// encodes).
    pub fn profile(self) -> WorkloadProfile {
        match self {
            Workload::Backprop => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.32,
                intensity_per_ns: 0.30,
                sequential_prob: 0.70,
                hot_fraction: 0.10,
                hot_prob: 0.30,
                footprint_fraction: 1.0,
                burst_mean: 16.0,
            },
            Workload::Bit => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.50,
                intensity_per_ns: 0.30,
                sequential_prob: 0.50,
                hot_fraction: 0.15,
                hot_prob: 0.25,
                footprint_fraction: 1.0,
                burst_mean: 8.0,
            },
            Workload::Buff => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.50,
                intensity_per_ns: 0.28,
                sequential_prob: 0.60,
                hot_fraction: 0.20,
                hot_prob: 0.20,
                footprint_fraction: 1.0,
                burst_mean: 16.0,
            },
            Workload::Dct => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.55,
                intensity_per_ns: 0.30,
                sequential_prob: 0.75,
                hot_fraction: 0.10,
                hot_prob: 0.25,
                footprint_fraction: 1.0,
                burst_mean: 16.0,
            },
            Workload::Hotspot => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.50,
                intensity_per_ns: 0.22,
                sequential_prob: 0.60,
                hot_fraction: 0.05,
                hot_prob: 0.50,
                footprint_fraction: 1.0,
                burst_mean: 8.0,
            },
            Workload::Kmeans => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.80,
                intensity_per_ns: 0.30,
                sequential_prob: 0.65,
                hot_fraction: 0.10,
                hot_prob: 0.35,
                footprint_fraction: 1.0,
                burst_mean: 16.0,
            },
            Workload::Matrixmul => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.70,
                intensity_per_ns: 0.18,
                sequential_prob: 0.80,
                hot_fraction: 0.10,
                hot_prob: 0.40,
                footprint_fraction: 1.0,
                burst_mean: 8.0,
            },
            Workload::Nw => WorkloadProfile {
                workload: Some(self),
                read_fraction: 0.67,
                intensity_per_ns: 0.04,
                sequential_prob: 0.55,
                hot_fraction: 0.15,
                hot_prob: 0.30,
                footprint_fraction: 1.0,
                burst_mean: 4.0,
            },
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of a synthetic memory request stream.
///
/// Construct via [`Workload::profile`] for the paper's workloads, or build
/// a custom profile directly (all fields are public data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Which paper workload this models, if any.
    pub workload: Option<Workload>,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Mean offered load per host port, requests per nanosecond.
    pub intensity_per_ns: f64,
    /// Probability that the next reference continues the current
    /// sequential run (64 B stride).
    pub sequential_prob: f64,
    /// Fraction of the footprint that is "hot" (Zipf-visited).
    pub hot_fraction: f64,
    /// Probability a non-sequential jump lands in the hot region.
    pub hot_prob: f64,
    /// Fraction of the address space the workload touches. The §6.2
    /// capacity study assumes footprints "just under the total memory
    /// capacity", i.e. 1.0.
    pub footprint_fraction: f64,
    /// Mean references per issue burst. GPU wavefronts issue coalesced
    /// groups of misses back to back (up to 64 lanes), so traffic is far
    /// burstier than Poisson — the source of the deep queuing the paper
    /// measures. Low-divergence kernels have long bursts.
    pub burst_mean: f64,
}

impl WorkloadProfile {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any probability/fraction is outside `[0, 1]` or the
    /// intensity is not positive and finite.
    pub fn validate(&self) {
        for (name, v) in [
            ("read_fraction", self.read_fraction),
            ("sequential_prob", self.sequential_prob),
            ("hot_fraction", self.hot_fraction),
            ("hot_prob", self.hot_prob),
            ("footprint_fraction", self.footprint_fraction),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        }
        assert!(
            self.intensity_per_ns.is_finite() && self.intensity_per_ns > 0.0,
            "intensity must be positive, got {}",
            self.intensity_per_ns
        );
        assert!(self.footprint_fraction > 0.0, "footprint must be non-empty");
        assert!(
            self.burst_mean.is_finite() && self.burst_mean >= 1.0,
            "burst_mean must be >= 1, got {}",
            self.burst_mean
        );
    }

    /// Mean inter-arrival gap in picoseconds.
    pub(crate) fn mean_gap_ps(&self) -> f64 {
        1000.0 / self.intensity_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_valid() {
        for w in Workload::ALL {
            w.profile().validate();
        }
    }

    #[test]
    fn paper_characterizations_hold() {
        // BACKPROP is the most write intensive.
        let backprop = Workload::Backprop.profile();
        for w in Workload::ALL {
            if w != Workload::Backprop {
                assert!(w.profile().read_fraction > backprop.read_fraction, "{w}");
            }
        }
        // KMEANS is the most read intensive.
        let kmeans = Workload::Kmeans.profile();
        for w in Workload::ALL {
            if w != Workload::Kmeans {
                assert!(w.profile().read_fraction < kmeans.read_fraction, "{w}");
            }
        }
        // KMEANS/MATRIXMUL/NW: at least 2 reads per write.
        for w in [Workload::Kmeans, Workload::Matrixmul, Workload::Nw] {
            assert!(w.profile().read_fraction >= 2.0 / 3.0, "{w}");
        }
        // NW has the lowest network load.
        let nw = Workload::Nw.profile();
        for w in Workload::ALL {
            if w != Workload::Nw {
                assert!(w.profile().intensity_per_ns > nw.intensity_per_ns, "{w}");
            }
        }
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Workload::Backprop.label(), "BACKPROP");
        assert_eq!(Workload::Nw.to_string(), "NW");
        assert_eq!(Workload::ALL.len(), 8);
    }

    #[test]
    fn mean_gap_inverts_intensity() {
        let p = Workload::Nw.profile();
        assert!((p.mean_gap_ps() - 25_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "read_fraction must be in [0,1]")]
    fn invalid_read_fraction_rejected() {
        let mut p = Workload::Bit.profile();
        p.read_fraction = 1.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "intensity must be positive")]
    fn invalid_intensity_rejected() {
        let mut p = Workload::Bit.profile();
        p.intensity_per_ns = 0.0;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "burst_mean must be >= 1")]
    fn invalid_burst_rejected() {
        let mut p = Workload::Bit.profile();
        p.burst_mean = 0.5;
        p.validate();
    }

    #[test]
    fn burstiness_tracks_kernel_style() {
        // Dense streaming kernels issue longer coalesced bursts than the
        // low-load NW proxy.
        assert!(Workload::Dct.profile().burst_mean > Workload::Nw.profile().burst_mean);
        assert!(Workload::Buff.profile().burst_mean >= 8.0);
    }
}
