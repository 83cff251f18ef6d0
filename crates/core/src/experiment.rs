//! Helpers for sweeping the paper's configuration grid.
//!
//! Every results figure (7, 10, 11, 12, 13, 14, 15) sweeps some subset of
//! {topology} x {DRAM:NVM mix} x {arbitration}, normalized to the `100%-C`
//! (all-DRAM chain) baseline. This module provides the grid and the
//! normalization arithmetic so each `mn-bench` binary stays declarative.

use mn_sim::SimTime;
use mn_topo::{NvmPlacement, TopologyKind};

use crate::config::{ConfigError, SystemConfig};

/// One DRAM:NVM capacity mix, as the paper labels them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// Fraction of capacity from DRAM.
    pub dram_fraction: f64,
    /// NVM placement (irrelevant for homogeneous mixes).
    pub placement: NvmPlacement,
}

impl MixSpec {
    /// `100%` — all DRAM.
    pub const ALL_DRAM: MixSpec = MixSpec {
        dram_fraction: 1.0,
        placement: NvmPlacement::Last,
    };
    /// `50% (NVM-L)` — half the capacity from NVM, placed far from the host.
    pub const HALF_NVM_LAST: MixSpec = MixSpec {
        dram_fraction: 0.5,
        placement: NvmPlacement::Last,
    };
    /// `50% (NVM-F)` — half the capacity from NVM, placed next to the host.
    pub const HALF_NVM_FIRST: MixSpec = MixSpec {
        dram_fraction: 0.5,
        placement: NvmPlacement::First,
    };
    /// `0%` — all NVM.
    pub const ALL_NVM: MixSpec = MixSpec {
        dram_fraction: 0.0,
        placement: NvmPlacement::Last,
    };
}

/// The four mixes of the paper's figures, in presentation order.
pub fn mix_grid() -> [MixSpec; 4] {
    [
        MixSpec::ALL_DRAM,
        MixSpec::HALF_NVM_LAST,
        MixSpec::HALF_NVM_FIRST,
        MixSpec::ALL_NVM,
    ]
}

/// The paper's short label for a mix: `100%`, `50% (NVM-L)`, ….
pub fn ratio_label(mix: MixSpec) -> String {
    let pct = (mix.dram_fraction * 100.0).round() as u32;
    if pct == 100 || pct == 0 {
        format!("{pct}%")
    } else {
        let p = match mix.placement {
            NvmPlacement::Last => "NVM-L",
            NvmPlacement::First => "NVM-F",
        };
        format!("{pct}% ({p})")
    }
}

/// A (topology, mix) grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigPoint {
    /// The topology.
    pub topology: TopologyKind,
    /// The DRAM:NVM mix.
    pub mix: MixSpec,
}

impl ConfigPoint {
    /// Builds the [`SystemConfig`] for this grid point.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the mix is unrealizable.
    pub fn config(&self) -> Result<SystemConfig, ConfigError> {
        Ok(
            SystemConfig::paper_baseline(self.topology, self.mix.dram_fraction)?
                .with_nvm_placement(self.mix.placement),
        )
    }
}

/// Speedup of `wall` over `baseline_wall` as the percentage the paper
/// plots: `(t_base / t) - 1`, so 0% means parity and 50% means 1.5x.
///
/// # Panics
///
/// Panics if `wall` is zero.
pub fn speedup_pct(baseline_wall: SimTime, wall: SimTime) -> f64 {
    assert!(wall > SimTime::ZERO, "wall time must be positive");
    (baseline_wall.as_ps() as f64 / wall.as_ps() as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_paper_order() {
        let g = mix_grid();
        assert_eq!(ratio_label(g[0]), "100%");
        assert_eq!(ratio_label(g[1]), "50% (NVM-L)");
        assert_eq!(ratio_label(g[2]), "50% (NVM-F)");
        assert_eq!(ratio_label(g[3]), "0%");
    }

    #[test]
    fn config_points_build() {
        for topology in TopologyKind::ALL {
            for mix in mix_grid() {
                let c = ConfigPoint { topology, mix }.config().unwrap();
                assert!(c.placement().is_ok());
            }
        }
    }

    #[test]
    fn speedup_arithmetic() {
        let base = SimTime::from_ns(150);
        assert!((speedup_pct(base, SimTime::from_ns(100)) - 50.0).abs() < 1e-9);
        assert!((speedup_pct(base, SimTime::from_ns(150))).abs() < 1e-9);
        assert!(speedup_pct(base, SimTime::from_ns(200)) < 0.0);
    }

    #[test]
    fn baseline_is_all_dram_chain() {
        let c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        assert_eq!(c.label(), "100%-C");
    }

    #[test]
    #[should_panic(expected = "wall time must be positive")]
    fn zero_wall_panics() {
        let _ = speedup_pct(SimTime::from_ns(1), SimTime::ZERO);
    }
}
