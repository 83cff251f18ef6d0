//! Deterministic link-fault injection: transient CRC errors with
//! retry/replay, lane degradation, and hard link failure.
//!
//! Real SerDes links fail in ways the paper's idealized interconnect never
//! does: bit errors force CRC-detected retransmission, individual lanes die
//! and the link trains down to half or quarter width, and whole links go
//! dark. [`FaultModel`] injects all three, deterministically: a dedicated
//! xoshiro256++ stream, seeded only by [`FaultConfig::seed`], decides the
//! static fault schedule (which links are dead or degraded, drawn in
//! link-id order at construction) and the dynamic one (which traversals
//! take a CRC hit, drawn in event order as the simulation runs). Because
//! every port simulation owns its network — and therefore its fault stream
//! — the schedule is a pure function of `(seed, topology, event order)`
//! and is identical at any worker count.
//!
//! Faults cost **latency, never data**: a corrupted packet is NAK'd and
//! replayed from the sender's retry buffer, occupying the link again and
//! paying a backoff per round trip. Hard link failures are routed around
//! where the topology has path diversity; where it does not, the network
//! refuses to build (see `NetworkError::Partitioned`) instead of silently
//! dropping traffic.

use std::fmt;

use mn_sim::{SimDuration, SimRng};
use mn_topo::{LinkId, Topology};

/// Fault-injection tunables. All-zero rates (the default) disable the
/// subsystem entirely: the network then skips fault bookkeeping and its
/// behavior is bit-identical to a build without the fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one link traversal takes a transient CRC error and
    /// must be replayed. Applied per attempt, so a traversal can fault
    /// repeatedly (geometric replay count, capped by `retry_limit`).
    pub transient_rate: f64,
    /// Probability that a link permanently trains down to reduced width
    /// (half or quarter, an equal-odds draw), stretching serialization by
    /// 2x or 4x for every packet crossing it.
    pub degrade_rate: f64,
    /// Probability that a link is hard-failed from time zero. Routing
    /// avoids dead links where the topology allows; otherwise network
    /// construction reports a partition.
    pub link_kill_rate: f64,
    /// Maximum replays of one traversal before the link gives up error
    /// recovery and forwards the packet anyway (faults cost latency, never
    /// data). Bounds the retry buffer occupancy.
    pub retry_limit: u32,
    /// Extra latency per replay round: NAK propagation plus retry-buffer
    /// turnaround at the sender.
    pub retry_backoff: SimDuration,
    /// Seed of the fault stream. Independent of the workload seed so the
    /// same traffic can be replayed under different fault schedules.
    pub seed: u64,
}

impl FaultConfig {
    /// The no-fault configuration: all rates zero, HMC-like retry
    /// parameters left in place for when a rate is raised.
    pub fn none() -> FaultConfig {
        FaultConfig {
            transient_rate: 0.0,
            degrade_rate: 0.0,
            link_kill_rate: 0.0,
            retry_limit: 8,
            retry_backoff: SimDuration::from_ns(4),
            seed: 0,
        }
    }

    /// True when any fault class can actually fire. The network only
    /// instantiates a [`FaultModel`] (and only perturbs the fingerprint of
    /// cached results) when this holds.
    pub fn enabled(&self) -> bool {
        self.transient_rate > 0.0 || self.degrade_rate > 0.0 || self.link_kill_rate > 0.0
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or not finite.
    pub fn validate(&self) {
        for (name, rate) in [
            ("transient_rate", self.transient_rate),
            ("degrade_rate", self.degrade_rate),
            ("link_kill_rate", self.link_kill_rate),
        ] {
            assert!(
                rate.is_finite() && (0.0..=1.0).contains(&rate),
                "{name} must be a probability in [0, 1], got {rate}"
            );
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Counters of fault activity, separate from [`crate::NetStats`] so the
/// healthy-path statistics stay untouched by the subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Traversals that took at least one CRC error.
    pub faulted_traversals: u64,
    /// Total replays across all traversals (≥ `faulted_traversals`).
    pub replays: u64,
    /// Traversals that hit `retry_limit` and forwarded anyway.
    pub exhausted_retries: u64,
    /// Links operating at reduced width.
    pub degraded_links: u32,
    /// Links hard-failed at construction.
    pub dead_links: u32,
}

/// The instantiated fault schedule for one network.
///
/// # Example
///
/// ```
/// use mn_noc::{FaultConfig, FaultModel};
/// use mn_topo::{Topology, TopologyKind, Placement, CubeTech};
///
/// let topo = Topology::build(
///     TopologyKind::Ring,
///     &Placement::homogeneous(16, CubeTech::Dram),
/// ).unwrap();
/// let cfg = FaultConfig { degrade_rate: 0.5, seed: 7, ..FaultConfig::none() };
/// let a = FaultModel::build(&topo, cfg.clone());
/// let b = FaultModel::build(&topo, cfg);
/// // Same seed, same topology: identical schedule.
/// assert_eq!(a.stats(), b.stats());
/// ```
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    rng: SimRng,
    /// Per-link serialization stretch as a shift: 0 → full width,
    /// 1 → half (2x), 2 → quarter (4x).
    width_shift: Vec<u8>,
    dead: Vec<LinkId>,
    stats: FaultStats,
}

impl FaultModel {
    /// Draws the static fault schedule for `topo`.
    ///
    /// Exactly three Bernoulli draws are consumed per link (kill, degrade,
    /// half-vs-quarter), unconditionally and in link-id order, so the
    /// stream position after construction — and hence the dynamic
    /// transient schedule — depends only on the seed and the link count,
    /// never on which static faults happened to land.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FaultConfig::validate`].
    pub fn build(topo: &Topology, config: FaultConfig) -> FaultModel {
        config.validate();
        let mut rng = SimRng::seed_from(config.seed);
        let mut width_shift = vec![0u8; topo.link_count()];
        let mut dead = Vec::new();
        for link in topo.link_ids() {
            let kill = rng.chance(config.link_kill_rate);
            let degrade = rng.chance(config.degrade_rate);
            let quarter = rng.chance(0.5);
            if kill {
                dead.push(link);
            } else if degrade {
                width_shift[link.index()] = if quarter { 2 } else { 1 };
            }
        }
        let stats = FaultStats {
            degraded_links: width_shift.iter().filter(|&&s| s > 0).count() as u32,
            dead_links: dead.len() as u32,
            ..FaultStats::default()
        };
        FaultModel {
            config,
            rng,
            width_shift,
            dead,
            stats,
        }
    }

    /// Fault-adjusted link occupancy for one traversal whose healthy
    /// serialization time is `ser`: degradation widens every attempt, and
    /// each CRC error re-serializes the packet and pays the retry backoff.
    ///
    /// Consumes one Bernoulli draw per attempt (1 + replays draws total),
    /// in event order — the caller's deterministic arbitration order *is*
    /// the fault schedule's order.
    pub fn traverse(&mut self, link: LinkId, ser: SimDuration) -> SimDuration {
        let ser = ser * (1u64 << self.width_shift[link.index()]);
        let mut replays: u32 = 0;
        let mut delivered = false;
        while replays < self.config.retry_limit {
            if !self.rng.chance(self.config.transient_rate) {
                delivered = true;
                break;
            }
            replays += 1;
        }
        if !delivered {
            self.stats.exhausted_retries += 1;
        }
        if replays > 0 {
            self.stats.faulted_traversals += 1;
            self.stats.replays += u64::from(replays);
        }
        ser * u64::from(replays + 1) + self.config.retry_backoff * u64::from(replays)
    }

    /// Links hard-failed at construction, in ascending id order.
    pub(crate) fn dead_links(&self) -> &[LinkId] {
        &self.dead
    }

    /// True when `link` is hard-failed.
    pub(crate) fn is_dead(&self, link: LinkId) -> bool {
        self.dead.binary_search(&link).is_ok()
    }

    /// Fault activity so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The configuration this schedule was drawn from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dead, {} degraded links; {} faulted traversals, {} replays ({} exhausted)",
            self.dead_links,
            self.degraded_links,
            self.faulted_traversals,
            self.replays,
            self.exhausted_retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::{CubeTech, Placement, TopologyKind};

    fn ring16() -> Topology {
        Topology::build(
            TopologyKind::Ring,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap()
    }

    #[test]
    fn same_seed_same_schedule() {
        let topo = ring16();
        let cfg = FaultConfig {
            transient_rate: 0.1,
            degrade_rate: 0.3,
            link_kill_rate: 0.1,
            seed: 42,
            ..FaultConfig::none()
        };
        let mut a = FaultModel::build(&topo, cfg.clone());
        let mut b = FaultModel::build(&topo, cfg);
        assert_eq!(a.dead_links(), b.dead_links());
        for link in topo.link_ids() {
            assert_eq!(a.width_shift[link.index()], b.width_shift[link.index()]);
        }
        // The dynamic streams agree too.
        let live = topo
            .link_ids()
            .find(|&l| !a.is_dead(l))
            .expect("some link survives");
        for _ in 0..200 {
            assert_eq!(
                a.traverse(live, SimDuration::from_ps(528)),
                b.traverse(live, SimDuration::from_ps(528))
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let topo = ring16();
        let mk = |seed| {
            FaultModel::build(
                &topo,
                FaultConfig {
                    degrade_rate: 0.5,
                    link_kill_rate: 0.2,
                    seed,
                    ..FaultConfig::none()
                },
            )
        };
        // At these rates, 64 static draws per seed: two identical
        // schedules across seeds would be astronomically unlikely.
        let schedules: Vec<Vec<u8>> = (0..4)
            .map(|s| {
                topo.link_ids()
                    .map(|l| mk(s).width_shift[l.index()])
                    .collect()
            })
            .collect();
        assert!(schedules.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn certain_transients_hit_the_retry_limit() {
        let topo = ring16();
        let cfg = FaultConfig {
            transient_rate: 1.0,
            retry_limit: 3,
            retry_backoff: SimDuration::from_ns(4),
            seed: 0,
            ..FaultConfig::none()
        };
        let mut fm = FaultModel::build(&topo, cfg);
        let link = topo.link_ids().next().unwrap();
        let ser = SimDuration::from_ps(1000);
        // Every attempt faults: 3 replays, then forward anyway.
        // Occupancy = 4 serializations + 3 backoffs.
        let got = fm.traverse(link, ser);
        assert_eq!(got, ser * 4 + SimDuration::from_ns(4) * 3);
        assert_eq!(fm.stats().replays, 3);
        assert_eq!(fm.stats().faulted_traversals, 1);
        assert_eq!(fm.stats().exhausted_retries, 1);
    }

    #[test]
    fn zero_rates_are_free() {
        let topo = ring16();
        let cfg = FaultConfig::none();
        assert!(!cfg.enabled());
        let mut fm = FaultModel::build(&topo, cfg);
        let link = topo.link_ids().next().unwrap();
        let ser = SimDuration::from_ps(528);
        assert_eq!(fm.traverse(link, ser), ser);
        assert_eq!(fm.stats().dead_links, 0);
        assert_eq!(fm.stats().degraded_links, 0);
    }

    #[test]
    fn degraded_links_stretch_serialization() {
        let topo = ring16();
        let cfg = FaultConfig {
            degrade_rate: 1.0,
            seed: 3,
            ..FaultConfig::none()
        };
        let mut fm = FaultModel::build(&topo, cfg);
        assert_eq!(fm.stats().degraded_links as usize, topo.link_count());
        let ser = SimDuration::from_ps(528);
        let mut seen = [false; 3];
        for link in topo.link_ids() {
            let shift = fm.width_shift[link.index()];
            assert!(shift == 1 || shift == 2, "degraded links are 2x or 4x");
            seen[shift as usize] = true;
            assert_eq!(fm.traverse(link, ser), ser * (1 << shift));
        }
        // With 16 links at equal odds, both widths appear.
        assert!(seen[1] && seen[2]);
    }

    #[test]
    fn kill_draws_precede_degrade_draws() {
        // A killed link is dead, not degraded, even at degrade_rate 1.
        let topo = ring16();
        let cfg = FaultConfig {
            degrade_rate: 1.0,
            link_kill_rate: 0.5,
            seed: 9,
            ..FaultConfig::none()
        };
        let fm = FaultModel::build(&topo, cfg);
        assert!(!fm.dead_links().is_empty());
        for &link in fm.dead_links() {
            assert!(fm.is_dead(link));
            assert_eq!(fm.width_shift[link.index()], 0);
        }
        assert_eq!(
            fm.stats().dead_links as usize + fm.stats().degraded_links as usize,
            topo.link_count()
        );
    }

    #[test]
    #[should_panic(expected = "transient_rate must be a probability")]
    fn rates_outside_unit_interval_rejected() {
        FaultConfig {
            transient_rate: 1.5,
            ..FaultConfig::none()
        }
        .validate();
    }
}
