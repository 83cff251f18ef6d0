//! System-level configuration: the paper's Table 2 plus experiment knobs.

use std::error::Error;
use std::fmt;

use mn_host::HostConfig;
use mn_noc::{ArbiterKind, NocConfig};
use mn_topo::{NvmPlacement, Placement, TopologyError, TopologyKind};

/// Errors from assembling a [`SystemConfig`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The capacity does not divide evenly across ports and cubes.
    Capacity(String),
    /// The DRAM:NVM mix cannot be realized (propagated from `mn-topo`).
    Placement(TopologyError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Capacity(msg) => write!(f, "invalid capacity: {msg}"),
            ConfigError::Placement(e) => write!(f, "invalid placement: {e}"),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Placement(e) => Some(e),
            ConfigError::Capacity(_) => None,
        }
    }
}

impl From<TopologyError> for ConfigError {
    fn from(e: TopologyError) -> Self {
        ConfigError::Placement(e)
    }
}

/// Capacity of one DRAM cube in GB (Table 2).
pub(crate) const DRAM_CUBE_GB: u64 = 16;

/// Full description of one simulated system.
///
/// Defaults come from the paper's Table 2: 2 TB across 8 ports, 16 GB DRAM
/// / 64 GB NVM cubes, 256 banks per stack in 4 quadrants, 256 B port
/// interleaving.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Host memory ports (8 baseline; 4 in the §6.1 study).
    pub ports: u32,
    /// Total system memory capacity in GB (2048 baseline; 1024 in §6.2).
    pub total_capacity_gb: u64,
    /// Fraction of each MN's capacity provided by DRAM (1.0 / 0.5 / 0.0 in
    /// the paper's configurations).
    pub dram_fraction: f64,
    /// Where NVM cubes sit relative to the host (ignored when the mix is
    /// homogeneous).
    pub nvm_placement: NvmPlacement,
    /// MN topology behind every port.
    pub topology: TopologyKind,
    /// Interconnect parameters (link timing, buffers, arbitration).
    pub noc: NocConfig,
    /// Closed-loop host model: an outstanding-request window gating
    /// injection, with a pluggable congestion-control policy. The default
    /// ([`HostConfig::open`]) disables the gate entirely — open-loop
    /// behavior and fingerprints are untouched; host parameters join the
    /// fingerprint only when a policy is active (same discipline as the
    /// fault model).
    pub host: HostConfig,
    /// Allow writes onto skip links during write bursts (§5.3). Only
    /// meaningful on [`TopologyKind::SkipList`].
    pub write_burst_routing: bool,
    /// Banks per quadrant (64 x 4 = the paper's 256 banks/stack).
    pub banks_per_quadrant: u32,
    /// Memory-controller queue depth per quadrant.
    pub controller_queue: usize,
    /// Port interleave granularity in bytes (§5: 256 B, chosen empirically).
    pub interleave_bytes: u64,
    /// Wavefront-like issue slots per port; each waits for its burst's
    /// reads before issuing again (the host's latency-sensitivity knob).
    pub window: usize,
    /// Host write-buffer entries per port: writes are fire-and-forget
    /// (§4.2) but issue stalls when this many are unacknowledged.
    pub host_write_buffer: usize,
    /// Trace length: requests each simulated port must complete.
    pub requests_per_port: u64,
    /// How many of the (identical, independent) per-port MNs to actually
    /// simulate; results are aggregated. 1 is sufficient for shape-level
    /// results since ports are disjoint and statistically identical.
    pub simulated_ports: u32,
    /// The port count the workload intensities are calibrated for; fewer
    /// real ports concentrate proportionally more traffic per port (§6.1).
    pub reference_ports: u32,
    /// RNG seed.
    pub seed: u64,
    /// Livelock watchdog: a port simulation whose completion count stays
    /// flat for this many driver iterations aborts with a structured
    /// stall error instead of hanging its worker. Deliberately *not* part
    /// of the result fingerprint: the limit only decides how a broken run
    /// fails (error vs. hang), never what a completed run computes.
    pub watchdog_limit: u64,
}

impl SystemConfig {
    /// The paper's 2 TB, 8-port system with the given topology and DRAM
    /// capacity fraction (NVM placed last).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the fraction cannot be realized with
    /// whole cubes.
    pub fn paper_baseline(
        topology: TopologyKind,
        dram_fraction: f64,
    ) -> Result<SystemConfig, ConfigError> {
        let config = SystemConfig {
            ports: 8,
            total_capacity_gb: 2048,
            dram_fraction,
            nvm_placement: NvmPlacement::Last,
            topology,
            noc: NocConfig::paper_baseline(),
            host: HostConfig::open(),
            write_burst_routing: false,
            banks_per_quadrant: 64,
            controller_queue: 32,
            interleave_bytes: 256,
            window: 3,
            host_write_buffer: 8,
            requests_per_port: 20_000,
            simulated_ports: 1,
            reference_ports: 8,
            seed: 0xC0FFEE,
            // Far above any legitimate completion gap (bursts complete
            // every few hundred iterations), far below "hung in CI".
            watchdog_limit: 2_000_000,
        };
        config.placement()?; // validate the mix early
        Ok(config)
    }

    /// Sets the NVM placement (builder style).
    pub fn with_nvm_placement(mut self, placement: NvmPlacement) -> SystemConfig {
        self.nvm_placement = placement;
        self
    }

    /// Sets the arbitration scheme (builder style).
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> SystemConfig {
        self.noc.arbiter = arbiter;
        self
    }

    /// Capacity served by each port, in GB.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn capacity_per_port_gb(&self) -> u64 {
        assert!(self.ports > 0, "system needs at least one port");
        self.total_capacity_gb / u64::from(self.ports)
    }

    /// The cube placement behind each port.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if capacity does not divide into whole
    /// DRAM-cube units or the mix is unrealizable.
    pub fn placement(&self) -> Result<Placement, ConfigError> {
        let per_port = self.capacity_per_port_gb();
        if per_port == 0 || !per_port.is_multiple_of(DRAM_CUBE_GB) {
            return Err(ConfigError::Capacity(format!(
                "per-port capacity {per_port} GB is not a multiple of {DRAM_CUBE_GB} GB cubes"
            )));
        }
        let units = u32::try_from(per_port / DRAM_CUBE_GB)
            .map_err(|_| ConfigError::Capacity("capacity too large".into()))?;
        Ok(Placement::mixed_with_total(
            self.dram_fraction,
            self.nvm_placement,
            units,
        )?)
    }

    /// Per-port injection intensity scale: fewer ports than the reference
    /// concentrate more of the APU's traffic on each (§6.1).
    pub(crate) fn intensity_scale(&self) -> f64 {
        f64::from(self.reference_ports) / f64::from(self.ports)
    }

    /// The paper's label for this configuration, e.g. `100%-C`,
    /// `50%-T (NVM-L)`, `0%-MC`.
    pub fn label(&self) -> String {
        let pct = (self.dram_fraction * 100.0).round() as u32;
        let topo = self.topology.label();
        if pct == 100 || pct == 0 {
            format!("{pct}%-{topo}")
        } else {
            let place = match self.nvm_placement {
                NvmPlacement::Last => "NVM-L",
                NvmPlacement::First => "NVM-F",
            };
            format!("{pct}%-{topo} ({place})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        assert_eq!(c.ports, 8);
        assert_eq!(c.total_capacity_gb, 2048);
        assert_eq!(c.capacity_per_port_gb(), 256);
        assert_eq!(c.banks_per_quadrant * 4, 256);
        assert_eq!(c.interleave_bytes, 256);
        let p = c.placement().unwrap();
        assert_eq!(p.cube_count(), 16);
    }

    #[test]
    fn half_mix_placement() {
        let c = SystemConfig::paper_baseline(TopologyKind::Tree, 0.5).unwrap();
        assert_eq!(c.placement().unwrap().cube_count(), 10);
    }

    #[test]
    fn four_port_study_doubles_cubes() {
        let mut c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        c.ports = 4;
        assert_eq!(c.capacity_per_port_gb(), 512);
        assert_eq!(c.placement().unwrap().cube_count(), 32);
        assert!((c.intensity_scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_tb_study_halves_cubes() {
        let mut c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        c.total_capacity_gb = 1024;
        assert_eq!(c.placement().unwrap().cube_count(), 8);
    }

    #[test]
    fn unrealizable_mix_is_error() {
        assert!(SystemConfig::paper_baseline(TopologyKind::Chain, 0.9).is_err());
    }

    #[test]
    fn labels_match_paper() {
        let c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        assert_eq!(c.label(), "100%-C");
        let c = SystemConfig::paper_baseline(TopologyKind::Tree, 0.5).unwrap();
        assert_eq!(c.label(), "50%-T (NVM-L)");
        let c = SystemConfig::paper_baseline(TopologyKind::SkipList, 0.5)
            .unwrap()
            .with_nvm_placement(NvmPlacement::First);
        assert_eq!(c.label(), "50%-SL (NVM-F)");
        let c = SystemConfig::paper_baseline(TopologyKind::MetaCube, 0.0).unwrap();
        assert_eq!(c.label(), "0%-MC");
    }

    #[test]
    fn capacity_error_reported() {
        let mut c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        c.total_capacity_gb = 100; // 12.5 GB per port
        assert!(matches!(c.placement(), Err(ConfigError::Capacity(_))));
    }

    #[test]
    fn builder_methods() {
        let c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0)
            .unwrap()
            .with_arbiter(ArbiterKind::Distance);
        assert_eq!(c.noc.arbiter, ArbiterKind::Distance);
    }
}
