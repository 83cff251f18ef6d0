//! The conventional DDR bus model behind the paper's Table 1 and the
//! capacity-versus-bandwidth motivation of §2.1.
//!
//! On a multi-drop DDR bus, adding DIMMs adds electrical load and forces
//! the bus clock down; capacity and bandwidth trade off directly. Memory
//! cubes escape this because each point-to-point link has fixed loading.
//!
//! # Example
//!
//! ```
//! use mn_mem::ddr::{DdrGeneration, max_speed_mhz};
//!
//! // Table 1: DDR3 drops from 1333 MHz at 1 DPC to 800 MHz at 3 DPC.
//! assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 1), Some(1333));
//! assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 3), Some(800));
//! assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 4), None); // unsupported
//! ```

/// A DDR interface generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdrGeneration {
    /// DDR3 (Table 1 values from Dell PowerEdge documentation).
    Ddr3,
    /// DDR4 (Table 1 values from Dell memory-population guidance).
    Ddr4,
}

impl DdrGeneration {
    /// Pins per channel; the paper cites 288 for DDR4 (§1). DDR3 used 240.
    pub(crate) const fn pins_per_channel(self) -> u32 {
        match self {
            DdrGeneration::Ddr3 => 240,
            DdrGeneration::Ddr4 => 288,
        }
    }
}

/// Maximum supported DIMMs per channel in typical servers (§2.1).
pub const MAX_DPC: u32 = 3;

/// Maximum bus speed in MHz (mega-transfers/s) for `dpc` DIMMs per channel,
/// or `None` if that population is unsupported. Reproduces Table 1 exactly.
pub fn max_speed_mhz(generation: DdrGeneration, dpc: u32) -> Option<u32> {
    match (generation, dpc) {
        (DdrGeneration::Ddr3, 1) => Some(1333),
        (DdrGeneration::Ddr3, 2) => Some(1066),
        (DdrGeneration::Ddr3, 3) => Some(800),
        (DdrGeneration::Ddr4, 1) => Some(2133),
        (DdrGeneration::Ddr4, 2) => Some(2133),
        (DdrGeneration::Ddr4, 3) => Some(1866),
        _ => None,
    }
}

/// Peak bandwidth of one channel in GB/s given the bus speed: a 64-bit data
/// bus transfers 8 bytes per transfer.
pub fn channel_bandwidth_gbs(speed_mhz: u32) -> f64 {
    f64::from(speed_mhz) * 8.0 / 1000.0
}

/// A DDR memory system configuration: how much capacity and bandwidth a
/// host gets from `channels` channels populated with `dpc` DIMMs of
/// `dimm_gb` gigabytes each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrSystem {
    /// Interface generation.
    pub generation: DdrGeneration,
    /// Number of memory channels.
    pub channels: u32,
    /// DIMMs per channel.
    pub dpc: u32,
    /// Capacity per DIMM, GB.
    pub dimm_gb: u32,
}

impl DdrSystem {
    /// Total capacity in GB.
    pub fn capacity_gb(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.dpc) * u64::from(self.dimm_gb)
    }

    /// Aggregate peak bandwidth in GB/s, or `None` if the DPC is
    /// unsupported.
    pub fn bandwidth_gbs(&self) -> Option<f64> {
        let mhz = max_speed_mhz(self.generation, self.dpc)?;
        Some(channel_bandwidth_gbs(mhz) * f64::from(self.channels))
    }

    /// Total processor pins consumed by the memory interfaces.
    pub fn pins(&self) -> u32 {
        self.generation.pins_per_channel() * self.channels
    }

    /// Bandwidth per unit capacity (GB/s per GB); the figure of merit that
    /// collapses as DPC grows, motivating memory networks.
    pub fn bandwidth_per_gb(&self) -> Option<f64> {
        Some(self.bandwidth_gbs()? / self.capacity_gb() as f64)
    }
}

/// Pin cost of one memory-cube (HMC 2.0-style) link: 66 pins (§2.2).
pub const CUBE_LINK_PINS: u32 = 66;

/// Peak bandwidth of one memory-cube link in GB/s: 16 lanes x 15 Gbps in
/// each direction ≈ 30 GB/s of payload twice over; the paper quotes
/// 320 GB/s aggregate for 8 links of HMC 2.0. We use the per-direction
/// payload figure used in the network model.
pub const CUBE_LINK_BANDWIDTH_GBS: f64 = 30.0;

/// How many cube links fit in the pin budget of `channels` DDR channels —
/// the paper's "over four times the number of HMC 2.0 links" comparison.
pub fn cube_links_for_pin_budget(generation: DdrGeneration, channels: u32) -> u32 {
    (generation.pins_per_channel() * channels) / CUBE_LINK_PINS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 1), Some(1333));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 2), Some(1066));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr3, 3), Some(800));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr4, 1), Some(2133));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr4, 2), Some(2133));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr4, 3), Some(1866));
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr4, 0), None);
        assert_eq!(max_speed_mhz(DdrGeneration::Ddr4, 4), None);
    }

    #[test]
    fn capacity_bandwidth_tradeoff() {
        let one = DdrSystem {
            generation: DdrGeneration::Ddr3,
            channels: 4,
            dpc: 1,
            dimm_gb: 32,
        };
        let three = DdrSystem { dpc: 3, ..one };
        assert!(three.capacity_gb() == 3 * one.capacity_gb());
        assert!(three.bandwidth_gbs().unwrap() < one.bandwidth_gbs().unwrap());
        assert!(three.bandwidth_per_gb().unwrap() < one.bandwidth_per_gb().unwrap());
    }

    #[test]
    fn ddr4_2dpc_keeps_speed() {
        let a = DdrSystem {
            generation: DdrGeneration::Ddr4,
            channels: 1,
            dpc: 1,
            dimm_gb: 16,
        };
        let b = DdrSystem { dpc: 2, ..a };
        assert_eq!(a.bandwidth_gbs(), b.bandwidth_gbs());
    }

    #[test]
    fn pin_comparison_favors_cubes() {
        // A four-channel DDR4 server spends 1152 pins (§1)...
        let server = DdrSystem {
            generation: DdrGeneration::Ddr4,
            channels: 4,
            dpc: 2,
            dimm_gb: 32,
        };
        assert_eq!(server.pins(), 1152);
        // ...which buys over four times as many cube links.
        let links = cube_links_for_pin_budget(DdrGeneration::Ddr4, 4);
        assert!(links >= 17, "got {links}");
        let cube_bw = f64::from(links) * CUBE_LINK_BANDWIDTH_GBS;
        assert!(cube_bw > server.bandwidth_gbs().unwrap() * 4.0);
    }

    #[test]
    fn channel_bandwidth_formula() {
        assert!((channel_bandwidth_gbs(2133) - 17.064).abs() < 1e-9);
    }
}
