//! Technology parameters: the paper's Table 2 timing and energy numbers.

use mn_sim::SimDuration;

/// Device timing parameters for one memory technology.
///
/// All values are per the paper's Table 2 unless noted. `t_wr` for DRAM is
/// not listed there; we use a typical 15 ns. `t_burst` models moving one
/// 64-byte access across the vault TSVs and is a small constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTimings {
    /// Row-activation latency (RAS-to-CAS delay).
    pub t_rcd: SimDuration,
    /// Column access (CAS) latency.
    pub t_cl: SimDuration,
    /// Precharge latency.
    pub t_rp: SimDuration,
    /// Minimum row-active time (activate → precharge).
    pub t_ras: SimDuration,
    /// Write recovery: the bank stays busy this long after write data
    /// arrives. The dominant cost of PCM writes (320 ns).
    pub t_wr: SimDuration,
    /// Data burst transfer time for one access.
    pub t_burst: SimDuration,
    /// Refresh interval per quadrant; `None` disables refresh (NVM needs
    /// none — one of its perks).
    pub refresh_interval: Option<SimDuration>,
    /// Duration banks are blocked per refresh.
    pub refresh_penalty: SimDuration,
}

/// Access energy parameters (dynamic only, as in §5's energy model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEnergy {
    /// Energy per bit read, picojoules.
    pub read_pj_per_bit: f64,
    /// Energy per bit written, picojoules.
    pub write_pj_per_bit: f64,
}

/// Complete description of a cube's memory technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemTechSpec {
    /// Device timings.
    pub timings: MemTimings,
    /// Access energy.
    pub energy: MemEnergy,
    /// Capacity per cube in GB (16 for DRAM, 64 for NVM — Table 2).
    pub capacity_gb: u32,
}

impl MemTechSpec {
    /// The paper's HBM-like DRAM stack: tRCD=12 ns, tCL=6 ns, tRP=14 ns,
    /// tRAS=33 ns; 12 pJ/bit reads and writes; 16 GB per cube.
    pub fn dram_hbm() -> MemTechSpec {
        MemTechSpec {
            timings: MemTimings {
                t_rcd: SimDuration::from_ns(12),
                t_cl: SimDuration::from_ns(6),
                t_rp: SimDuration::from_ns(14),
                t_ras: SimDuration::from_ns(33),
                t_wr: SimDuration::from_ns(15),
                t_burst: SimDuration::from_ns(2),
                refresh_interval: Some(SimDuration::from_us(7)),
                refresh_penalty: SimDuration::from_ns(350),
            },
            energy: MemEnergy {
                read_pj_per_bit: 12.0,
                write_pj_per_bit: 12.0,
            },
            capacity_gb: 16,
        }
    }

    /// The paper's PCM-like NVM stack: tRCD=40 ns, tCL=10 ns,
    /// tWR=320 ns at a 500 MHz device clock; reads 12 pJ/bit, writes
    /// 120 pJ/bit (10x); 64 GB per cube; no refresh.
    pub fn nvm_pcm() -> MemTechSpec {
        MemTechSpec {
            timings: MemTimings {
                t_rcd: SimDuration::from_ns(40),
                t_cl: SimDuration::from_ns(10),
                // PCM has no destructive reads: "precharge" is just row
                // buffer replacement; modeled as the 2 ns device cycle.
                t_rp: SimDuration::from_ns(2),
                t_ras: SimDuration::from_ns(0),
                t_wr: SimDuration::from_ns(320),
                t_burst: SimDuration::from_ns(2),
                refresh_interval: None,
                refresh_penalty: SimDuration::ZERO,
            },
            energy: MemEnergy {
                read_pj_per_bit: 12.0,
                write_pj_per_bit: 120.0,
            },
            capacity_gb: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_matches_table2() {
        let d = MemTechSpec::dram_hbm();
        assert_eq!(d.timings.t_rcd, SimDuration::from_ns(12));
        assert_eq!(d.timings.t_cl, SimDuration::from_ns(6));
        assert_eq!(d.timings.t_rp, SimDuration::from_ns(14));
        assert_eq!(d.timings.t_ras, SimDuration::from_ns(33));
        assert_eq!(d.capacity_gb, 16);
        assert!((d.energy.read_pj_per_bit - 12.0).abs() < f64::EPSILON);
    }

    #[test]
    fn nvm_matches_table2() {
        let n = MemTechSpec::nvm_pcm();
        assert_eq!(n.timings.t_rcd, SimDuration::from_ns(40));
        assert_eq!(n.timings.t_cl, SimDuration::from_ns(10));
        assert_eq!(n.timings.t_wr, SimDuration::from_ns(320));
        assert_eq!(n.capacity_gb, 64);
        assert!((n.energy.write_pj_per_bit - 120.0).abs() < f64::EPSILON);
        assert!(n.timings.refresh_interval.is_none());
    }

    #[test]
    fn nvm_reads_slower_than_dram() {
        let d = MemTechSpec::dram_hbm();
        let n = MemTechSpec::nvm_pcm();
        assert!(n.timings.t_rcd > d.timings.t_rcd);
        assert!(n.timings.t_cl + n.timings.t_burst > d.timings.t_cl + d.timings.t_burst);
    }
}
