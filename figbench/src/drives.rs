//! Isolated drives of single kernel layers, sized from what the traced
//! pass simulated. Each times one layer's public entry points outside any
//! simulation; the numbers are per operation and are never summed with
//! the traced pass's self times.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mn_core::SystemConfig;
use mn_mem::{MemAccess, MemTechSpec, QuadrantController};
use mn_noc::Network;
use mn_sim::{LadderQueue, SimDuration, SimRng, SimTime};
use mn_topo::{RoutingTable, Topology};
use mn_workloads::{TraceGenerator, Workload};

/// One simulated port: its configuration, workload and port index.
#[derive(Debug, Clone)]
pub struct PortJob {
    /// The point's configuration.
    pub config: SystemConfig,
    /// The point's workload.
    pub workload: Workload,
    /// The port index.
    pub port: u32,
}

impl PortJob {
    /// The trace seed `mn_core::try_simulate_port` derives for this port.
    fn trace_seed(&self) -> u64 {
        self.config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(self.port) + 1))
    }

    /// The port's slice of the address space, in bytes.
    fn space_bytes(&self) -> u64 {
        self.config.capacity_per_port_gb() * (1 << 30)
    }
}

/// Ladder bucket width `Network` picks for `config`: the fastest link
/// traversal (fixed latency plus control-packet serialization), clamped.
pub fn bucket_width_ps(config: &SystemConfig) -> u64 {
    let placement = config.placement().expect("benchmark configs are valid");
    let topo = Topology::build(config.topology, &placement).expect("valid placement builds");
    topo.link_ids()
        .map(|l| {
            let timing = config.noc.link_timing(topo.link(l).class);
            (timing.fixed_latency + timing.serialize(config.noc.control_bytes)).as_ps()
        })
        .min()
        .map_or(mn_sim::ladder::BUCKET_PS, |ps| ps.clamp(128, 65_536))
}

/// Hold-model drive of the ladder queue: `depth` pending events at bucket
/// width `bucket_ps`, then `ops` pop-and-reschedule operations with
/// increments of up to eight bucket widths. Returns ns per operation.
pub fn ladder_hold_ns(depth: usize, bucket_ps: u64, ops: usize, seed: u64) -> f64 {
    let depth = depth.max(1);
    let mut rng = SimRng::seed_from(seed);
    let increments: Vec<u64> = (0..4096).map(|_| 1 + rng.below(8 * bucket_ps)).collect();
    let mut queue: LadderQueue<u32> = LadderQueue::with_capacity_and_bucket(depth, bucket_ps);
    for (i, &inc) in (0u32..).zip(increments.iter().cycle().take(depth)) {
        queue.push(SimTime::ZERO + SimDuration::from_ps(inc), i);
    }
    let start = Instant::now();
    for &inc in increments.iter().cycle().take(ops) {
        let (time, event) = queue.pop().expect("the hold model keeps the queue full");
        queue.push(time + SimDuration::from_ps(inc), black_box(event));
    }
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Drives one DRAM quadrant controller through `accesses` accesses, a
/// `write_share` of them writes, over the banks and queue depth of
/// `config`. Returns ns per access.
pub fn controller_ns(config: &SystemConfig, accesses: u64, write_share: f64, seed: u64) -> f64 {
    let banks = config.banks_per_quadrant;
    let mut ctrl = QuadrantController::new(MemTechSpec::dram_hbm(), banks, config.controller_queue);
    let mut rng = SimRng::seed_from(seed);
    let mut done = Vec::new();
    let (mut issued, mut completed) = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    let draw = |token: u64, rng: &mut SimRng| {
        // A small row set per bank, so row hits and conflicts both occur.
        let (bank, row) = (rng.below(u64::from(banks)) as u32, rng.below(16));
        if rng.chance(write_share) {
            MemAccess::write(token, bank, row)
        } else {
            MemAccess::read(token, bank, row)
        }
    };
    let mut next = draw(0, &mut rng);
    let start = Instant::now();
    while completed < accesses {
        while issued < accesses && ctrl.has_space(next.is_write) {
            ctrl.enqueue(next, now).expect("has_space was checked");
            issued += 1;
            next = draw(issued, &mut rng);
        }
        let Some(at) = ctrl.next_event_time() else {
            break;
        };
        now = now.max(at);
        ctrl.advance_into(now, &mut done);
        completed += done.len() as u64;
        done.clear();
    }
    black_box(ctrl.row_hit_rate());
    start.elapsed().as_nanos() as f64 / completed.max(1) as f64
}

/// Generates every port's reference stream (its profile, address space,
/// seed and request count). Returns ns per reference.
pub fn trace_ns_per_ref(ports: &[PortJob]) -> f64 {
    let mut refs = 0u64;
    let start = Instant::now();
    for job in ports {
        let n = job.config.requests_per_port;
        let gen = TraceGenerator::new(job.workload.profile(), job.space_bytes(), job.trace_seed());
        for r in gen.take(n as usize) {
            black_box(r);
        }
        refs += n;
    }
    start.elapsed().as_nanos() as f64 / refs.max(1) as f64
}

/// Builds every port's topology plus routing table, then its network.
/// Returns mean µs per build for `(topology, network)`.
pub fn build_us(ports: &[PortJob]) -> (f64, f64) {
    let (mut topo_ns, mut noc_ns) = (0u128, 0u128);
    for job in ports {
        let placement = job.config.placement().expect("benchmark configs are valid");
        let start = Instant::now();
        let topo = Topology::build(job.config.topology, &placement).expect("valid placement");
        black_box(RoutingTable::compute(&topo));
        topo_ns += start.elapsed().as_nanos();
        let topo = Arc::new(topo);
        let start = Instant::now();
        let net = Network::new(Arc::clone(&topo), job.config.noc.clone());
        noc_ns += start.elapsed().as_nanos();
        drop(black_box(net));
    }
    let n = ports.len().max(1) as f64;
    (topo_ns as f64 / n / 1e3, noc_ns as f64 / n / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::TopologyKind;

    fn job() -> PortJob {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
        config.requests_per_port = 200;
        PortJob {
            config,
            workload: Workload::Nw,
            port: 0,
        }
    }

    #[test]
    fn drives_report_positive_costs() {
        let job = job();
        let bucket = bucket_width_ps(&job.config);
        assert!((128..=65_536).contains(&bucket));
        assert!(ladder_hold_ns(64, bucket, 10_000, 1) > 0.0);
        assert!(controller_ns(&job.config, 2_000, 0.0, 1) > 0.0);
        assert!(controller_ns(&job.config, 2_000, 0.7, 1) > 0.0);
        assert!(trace_ns_per_ref(std::slice::from_ref(&job)) > 0.0);
        let (topo, noc) = build_us(&[job]);
        assert!(topo > 0.0 && noc > 0.0);
    }
}
