//! Cube technology mixes and their placement order within an MN.
//!
//! The paper labels heterogeneous networks by the *percentage of capacity*
//! provided by DRAM ("100%" = all DRAM, "0%" = all NVM) and by where the NVM
//! cubes sit relative to the host port: `NVM-L` (last, far from the
//! processor) or `NVM-F` (first, close to it) — see §3.3 and Fig. 6.
//!
//! A DRAM cube holds one capacity unit (16 GB in the paper's Table 2); an
//! NVM cube holds [`CubeTech::Nvm::CAPACITY_UNITS`] = 4 units (64 GB).
//! Replacing DRAM capacity with NVM therefore *shrinks* the network: the
//! 50% mix is 8 DRAM + 2 NVM = 10 cubes instead of 16.

use crate::error::TopologyError;

/// The memory technology inside one cube package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CubeTech {
    /// A stack of DRAM dies (16 GB per cube in the paper's configuration).
    Dram,
    /// A stack of non-volatile memory (PCM-like; 4x the capacity of a DRAM
    /// cube, but slower — especially for writes).
    Nvm,
}

impl CubeTech {
    /// Relative capacity of a cube of this technology, in DRAM-cube units.
    pub const fn capacity_units(self) -> u32 {
        match self {
            CubeTech::Dram => 1,
            CubeTech::Nvm => 4,
        }
    }
}

/// Where NVM cubes are placed within the network (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmPlacement {
    /// `NVM-F`: NVM cubes closest to the host port.
    First,
    /// `NVM-L`: NVM cubes farthest from the host port.
    Last,
}

/// An ordered list of cube technologies, position 1 being closest to the
/// host port.
///
/// # Example
///
/// ```
/// use mn_topo::{Placement, CubeTech, NvmPlacement};
///
/// let p = Placement::mixed_by_capacity(0.5, NvmPlacement::First).unwrap();
/// assert_eq!(p.tech_at(1), CubeTech::Nvm);   // NVM-F: NVM is closest
/// assert_eq!(p.tech_at(10), CubeTech::Dram);
/// assert_eq!(p.total_capacity_units(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    techs: Vec<CubeTech>,
}

impl Placement {
    /// Total capacity of the baseline all-DRAM network, in DRAM-cube units.
    /// The paper's per-port MN is 16 cubes x 16 GB = 256 GB.
    pub const BASELINE_CAPACITY_UNITS: u32 = 16;

    /// A placement of `n` identical cubes.
    pub fn homogeneous(n: usize, tech: CubeTech) -> Placement {
        Placement {
            techs: vec![tech; n],
        }
    }

    /// A placement built from an explicit ordered technology list.
    pub fn from_techs(techs: Vec<CubeTech>) -> Placement {
        Placement { techs }
    }

    /// The paper's capacity-ratio construction: `dram_fraction` of the
    /// baseline capacity (16 units) comes from DRAM cubes, the rest from
    /// 4x-capacity NVM cubes. The placement keeps total capacity constant.
    ///
    /// `dram_fraction` of 1.0 yields 16 DRAM cubes, 0.5 yields 8 DRAM +
    /// 2 NVM, and 0.0 yields 4 NVM cubes — exactly the 100% / 50% / 0%
    /// configurations of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidRatio`] if `dram_fraction` is outside
    /// `[0, 1]`, or [`TopologyError::UnrealizableMix`] if the fraction does
    /// not divide into whole cubes.
    pub fn mixed_by_capacity(
        dram_fraction: f64,
        placement: NvmPlacement,
    ) -> Result<Placement, TopologyError> {
        Self::mixed_with_total(dram_fraction, placement, Self::BASELINE_CAPACITY_UNITS)
    }

    /// Like [`Placement::mixed_by_capacity`] but for an arbitrary total
    /// capacity (in DRAM-cube units). Used by the Fig. 13 sensitivity study
    /// where halving the port count doubles the capacity behind each port.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Placement::mixed_by_capacity`].
    pub fn mixed_with_total(
        dram_fraction: f64,
        placement: NvmPlacement,
        total_units: u32,
    ) -> Result<Placement, TopologyError> {
        if !(0.0..=1.0).contains(&dram_fraction) {
            return Err(TopologyError::InvalidRatio {
                value: dram_fraction,
            });
        }
        let dram_units = dram_fraction * total_units as f64;
        if (dram_units - dram_units.round()).abs() > 1e-9 {
            return Err(TopologyError::UnrealizableMix { dram_fraction });
        }
        let dram_cubes = dram_units.round() as u32;
        let nvm_units = total_units - dram_cubes;
        if !nvm_units.is_multiple_of(CubeTech::Nvm.capacity_units()) {
            return Err(TopologyError::UnrealizableMix { dram_fraction });
        }
        let nvm_cubes = nvm_units / CubeTech::Nvm.capacity_units();

        let mut techs = Vec::with_capacity((dram_cubes + nvm_cubes) as usize);
        match placement {
            NvmPlacement::First => {
                techs.extend(std::iter::repeat_n(CubeTech::Nvm, nvm_cubes as usize));
                techs.extend(std::iter::repeat_n(CubeTech::Dram, dram_cubes as usize));
            }
            NvmPlacement::Last => {
                techs.extend(std::iter::repeat_n(CubeTech::Dram, dram_cubes as usize));
                techs.extend(std::iter::repeat_n(CubeTech::Nvm, nvm_cubes as usize));
            }
        }
        Ok(Placement { techs })
    }

    /// Number of cubes in this placement.
    pub fn cube_count(&self) -> usize {
        self.techs.len()
    }

    /// True if there are no cubes.
    pub fn is_empty(&self) -> bool {
        self.techs.is_empty()
    }

    /// Technology at 1-based position `pos` (position 1 is closest to the
    /// host).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero or beyond the placement.
    pub fn tech_at(&self, pos: u32) -> CubeTech {
        self.techs[(pos - 1) as usize]
    }

    /// Iterator over technologies in position order.
    pub fn iter(&self) -> impl Iterator<Item = CubeTech> + '_ {
        self.techs.iter().copied()
    }

    /// Total capacity in DRAM-cube units.
    pub fn total_capacity_units(&self) -> u32 {
        self.techs.iter().map(|t| t.capacity_units()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_units() {
        assert_eq!(CubeTech::Dram.capacity_units(), 1);
        assert_eq!(CubeTech::Nvm.capacity_units(), 4);
    }

    #[test]
    fn all_dram_is_16_cubes() {
        let p = Placement::mixed_by_capacity(1.0, NvmPlacement::Last).unwrap();
        assert_eq!(p.cube_count(), 16);
        assert!(p.iter().all(|t| t == CubeTech::Dram));
        assert_eq!(p.total_capacity_units(), 16);
    }

    #[test]
    fn all_nvm_is_4_cubes() {
        let p = Placement::mixed_by_capacity(0.0, NvmPlacement::Last).unwrap();
        assert_eq!(p.cube_count(), 4);
        assert!(p.iter().all(|t| t == CubeTech::Nvm));
        assert_eq!(p.total_capacity_units(), 16);
    }

    #[test]
    fn half_mix_is_8_dram_2_nvm() {
        let p = Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap();
        assert_eq!(p.cube_count(), 10);
        assert_eq!(p.tech_at(1), CubeTech::Dram);
        assert_eq!(p.tech_at(8), CubeTech::Dram);
        assert_eq!(p.tech_at(9), CubeTech::Nvm);
        assert_eq!(p.tech_at(10), CubeTech::Nvm);
    }

    #[test]
    fn nvm_first_reverses_order() {
        let p = Placement::mixed_by_capacity(0.5, NvmPlacement::First).unwrap();
        assert_eq!(p.tech_at(1), CubeTech::Nvm);
        assert_eq!(p.tech_at(2), CubeTech::Nvm);
        assert_eq!(p.tech_at(3), CubeTech::Dram);
    }

    #[test]
    fn rejects_out_of_range_ratio() {
        assert!(matches!(
            Placement::mixed_by_capacity(1.5, NvmPlacement::Last),
            Err(TopologyError::InvalidRatio { .. })
        ));
    }

    #[test]
    fn rejects_unrealizable_mix() {
        // 90% DRAM leaves 1.6 units of NVM: not a whole cube.
        assert!(matches!(
            Placement::mixed_by_capacity(0.9, NvmPlacement::Last),
            Err(TopologyError::UnrealizableMix { .. })
        ));
    }

    #[test]
    fn quarter_and_threequarter_mixes_work() {
        // 75% DRAM: 12 DRAM + 1 NVM.
        let p = Placement::mixed_by_capacity(0.75, NvmPlacement::Last).unwrap();
        assert_eq!(p.cube_count(), 13);
        // 25% DRAM: 4 DRAM + 3 NVM.
        let p = Placement::mixed_by_capacity(0.25, NvmPlacement::Last).unwrap();
        assert_eq!(p.cube_count(), 7);
    }

    #[test]
    fn doubled_total_for_four_port_study() {
        let p = Placement::mixed_with_total(0.5, NvmPlacement::Last, 32).unwrap();
        assert_eq!(p.cube_count(), 20); // 16 DRAM + 4 NVM
        assert_eq!(p.total_capacity_units(), 32);
    }

    #[test]
    fn explicit_tech_list() {
        let p = Placement::from_techs(vec![CubeTech::Nvm, CubeTech::Dram]);
        assert_eq!(p.cube_count(), 2);
        assert_eq!(p.tech_at(1), CubeTech::Nvm);
        assert_eq!(p.total_capacity_units(), 5);
    }
}
