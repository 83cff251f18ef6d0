//! The top-level entry point: simulate a [`SystemConfig`] under a workload.

use mn_workloads::{TraceGenerator, Workload};

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::port::{PortObservation, PortSim};
use crate::stats::{EnergyBreakdown, LatencyBreakdown, RunResult};

/// Simulates `config` running `workload` and returns aggregated results.
///
/// The system's ports serve disjoint address slices, so each simulated port
/// is an independent MN instance; `config.simulated_ports` of them run
/// (with decorrelated seeds) and their statistics are merged. The reported
/// wall time is the slowest port's completion time — the system is done
/// when every port is.
///
/// # Panics
///
/// Panics if the configuration's placement is invalid (validate with
/// [`SystemConfig::placement`] first; configs built through
/// [`SystemConfig::paper_baseline`] are always valid).
///
/// # Example
///
/// ```
/// use mn_core::{simulate, SystemConfig};
/// use mn_topo::TopologyKind;
/// use mn_workloads::Workload;
///
/// let mut config = SystemConfig::paper_baseline(TopologyKind::Ring, 1.0).unwrap();
/// config.requests_per_port = 1_000;
/// let result = simulate(&config, Workload::Nw);
/// assert_eq!(result.reads + result.writes, 1_000);
/// ```
pub fn simulate(config: &SystemConfig, workload: Workload) -> RunResult {
    try_simulate(config, workload).unwrap_or_else(|e| panic!("{e}"))
}

/// [`simulate`] with structured failure: a partitioned network or a
/// stalled port surfaces as a [`SimError`] value instead of a panic, so
/// campaign workers can attribute the failure to its grid point.
pub fn try_simulate(config: &SystemConfig, workload: Workload) -> Result<RunResult, SimError> {
    let observations = (0..port_count(config))
        .map(|port| try_simulate_port(config, workload, port))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(merge_port_observations(config, workload, observations))
}

/// The number of independent port simulations `config` describes.
pub fn port_count(config: &SystemConfig) -> u32 {
    config.simulated_ports.max(1)
}

/// Simulates one port of `config` (0-based index) under `workload`.
///
/// Ports serve disjoint address slices with decorrelated seeds, so each
/// call is an independent, deterministic simulation. [`simulate`] is the
/// serial composition of this with [`merge_port_observations`]; a
/// scheduler (mn-campaign) fans these calls out to worker threads instead,
/// and — because the merge is ordered — the aggregate is bit-identical
/// either way.
///
/// # Panics
///
/// Panics if the configuration's placement is invalid.
pub fn simulate_port(config: &SystemConfig, workload: Workload, port: u32) -> PortObservation {
    try_simulate_port(config, workload, port).unwrap_or_else(|e| panic!("port {port}: {e}"))
}

/// [`simulate_port`] with structured failure (see [`try_simulate`]).
///
/// # Errors
///
/// Returns [`SimError::Partitioned`] when fault injection severed the
/// topology and [`SimError::Stalled`] when the port wedges mid-run.
///
/// # Panics
///
/// Panics if the configuration's placement is invalid.
pub fn try_simulate_port(
    config: &SystemConfig,
    workload: Workload,
    port: u32,
) -> Result<PortObservation, SimError> {
    config.placement().expect("invalid configuration");
    let space_bytes = config.capacity_per_port_gb() * (1 << 30);
    let seed = config
        .seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(port) + 1));
    let trace = TraceGenerator::new(workload.profile(), space_bytes, seed);
    PortSim::try_new(config, trace)?.run()
}

/// Builds `config`'s memory network without simulating it. A
/// construction-time failure (a fault schedule that partitions the
/// topology, a router with too many ports) depends on neither the port nor
/// the workload, so this reports the error every port of the point would
/// report before its first event.
///
/// # Errors
///
/// Returns [`SimError::Partitioned`] or [`SimError::TooManyPorts`].
///
/// # Panics
///
/// Panics if the configuration's placement is invalid.
pub fn try_build_network(config: &SystemConfig) -> Result<(), SimError> {
    let placement = config.placement().expect("invalid configuration");
    crate::port::build_network(config, &placement).map(drop)
}

/// Merges per-port observations into the aggregate [`RunResult`].
///
/// `observations` must be supplied in ascending port order: the merge sums
/// floating-point statistics, and summation order is part of the
/// bit-reproducible contract the result cache depends on.
pub fn merge_port_observations(
    config: &SystemConfig,
    workload: Workload,
    observations: impl IntoIterator<Item = PortObservation>,
) -> RunResult {
    let mut wall = mn_sim::SimTime::ZERO;
    let mut breakdown = LatencyBreakdown::default();
    let mut energy = EnergyBreakdown::default();
    let mut reads = 0;
    let mut writes = 0;
    let mut read_latency = mn_sim::Histogram::new();
    let mut hit_rate_sum = 0.0;
    let mut hops_sum = 0.0;
    let mut telemetry: Option<Box<mn_telemetry::TelemetrySummary>> = None;

    for mut result in observations {
        wall = wall.max(result.wall);
        breakdown.merge(&result.breakdown);
        energy.merge(&result.energy);
        read_latency.merge(&result.read_latency);
        reads += result.reads;
        writes += result.writes;
        hit_rate_sum += result.row_hit_rate;
        hops_sum += result.avg_hops;
        // Telemetry merges in the same ascending-port order as the
        // float statistics above; the rollup is deterministic too.
        if let Some(t) = result.take_telemetry() {
            telemetry.get_or_insert_with(Box::default).merge(&t.summary);
        }
    }

    let n = f64::from(port_count(config));
    RunResult {
        label: config.label(),
        workload: workload.label().to_string(),
        wall,
        breakdown,
        energy,
        reads,
        writes,
        row_hit_rate: hit_rate_sum / n,
        avg_hops: hops_sum / n,
        read_latency,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::TopologyKind;

    fn quick(topology: TopologyKind) -> SystemConfig {
        let mut c = SystemConfig::paper_baseline(topology, 1.0).unwrap();
        c.requests_per_port = 400;
        c
    }

    #[test]
    fn aggregates_multiple_ports() {
        let mut c = quick(TopologyKind::Tree);
        c.simulated_ports = 2;
        let r = simulate(&c, Workload::Nw);
        assert_eq!(r.reads + r.writes, 800);
        assert_eq!(r.breakdown.to_memory.count(), 800);
    }

    #[test]
    fn labels_propagate() {
        let r = simulate(&quick(TopologyKind::Chain), Workload::Dct);
        assert_eq!(r.label, "100%-C");
        assert_eq!(r.workload, "DCT");
    }

    #[test]
    fn throughput_is_positive() {
        let r = simulate(&quick(TopologyKind::Ring), Workload::Bit);
        assert!(r.throughput_per_us() > 0.0);
    }
}
