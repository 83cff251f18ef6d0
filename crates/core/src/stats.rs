//! Result types: latency breakdowns (Fig. 5), energy breakdowns (Fig. 15),
//! and per-run summaries.

use mn_mem::EnergyPj;
use mn_sim::{Accumulator, Histogram, SimDuration, SimTime};
use mn_telemetry::TelemetrySummary;

/// The three-way latency split of the paper's Fig. 5: time spent getting to
/// the cube, inside the memory arrays, and returning to the host.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Offer-to-cube-arrival latency (includes host-port queuing — the
    /// paper's dominant term under load).
    pub to_memory: Accumulator,
    /// Cube-arrival to data-ready latency (controller queue + bank timing
    /// + wrong-quadrant penalty).
    pub in_memory: Accumulator,
    /// Data-ready to response-delivery latency.
    pub from_memory: Accumulator,
}

impl LatencyBreakdown {
    /// Mean end-to-end latency in nanoseconds.
    pub fn total_mean_ns(&self) -> f64 {
        self.to_memory.mean_ns() + self.in_memory.mean_ns() + self.from_memory.mean_ns()
    }

    /// Fractions `(to, in, from)` of the mean end-to-end latency; zeros
    /// when empty.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total_mean_ns();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.to_memory.mean_ns() / total,
            self.in_memory.mean_ns() / total,
            self.from_memory.mean_ns() / total,
        )
    }

    /// Merges another breakdown (for multi-port aggregation).
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.to_memory.merge(&other.to_memory);
        self.in_memory.merge(&other.in_memory);
        self.from_memory.merge(&other.from_memory);
    }
}

/// The Fig. 15 energy split: data movement vs. array reads vs. array writes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Transport (per-bit-per-hop) energy.
    pub network: EnergyPj,
    /// Memory array read energy.
    pub read: EnergyPj,
    /// Memory array write energy.
    pub write: EnergyPj,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> EnergyPj {
        self.network + self.read + self.write
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.network += other.network;
        self.read += other.read;
        self.write += other.write;
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration label (e.g. `50%-T (NVM-L)`).
    pub label: String,
    /// Workload label.
    pub workload: String,
    /// Simulated time for the slowest simulated port to finish its trace —
    /// the execution-time metric behind every speedup figure.
    pub wall: SimTime,
    /// Latency breakdown over completed requests.
    pub breakdown: LatencyBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Row-buffer hit rate across all controllers.
    pub row_hit_rate: f64,
    /// Mean network hops per delivered packet.
    pub avg_hops: f64,
    /// End-to-end **read** latency distribution (offer → response). Tails
    /// matter here: arbitration schemes move the p95/p99 far more than the
    /// mean (the §4.1 parking-lot problem starves the farthest requests).
    pub read_latency: Histogram,
    /// Cross-port telemetry rollup (latency decomposition, fairness,
    /// queue depth, peak link utilization). `None` when the run's
    /// [`mn_noc::TraceConfig`] was `Off` — the default, and the mode
    /// every cached or fingerprinted result is produced under. Boxed:
    /// the rollup is about 2 KB, and an inline `None` would make every
    /// result that large to move.
    pub telemetry: Option<Box<TelemetrySummary>>,
}

impl RunResult {
    /// Requests completed per microsecond of simulated time — a throughput
    /// view of the same result.
    pub fn throughput_per_us(&self) -> f64 {
        let us = self.wall.as_ns_f64() / 1000.0;
        if us == 0.0 {
            0.0
        } else {
            (self.reads + self.writes) as f64 / us
        }
    }

    /// An approximate quantile of end-to-end read latency, or zero when no
    /// reads completed.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn read_latency_quantile(&self, q: f64) -> SimDuration {
        self.read_latency.quantile(q).unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_sim::SimDuration;

    #[test]
    fn fractions_sum_to_one() {
        let mut b = LatencyBreakdown::default();
        b.to_memory.record(SimDuration::from_ns(60));
        b.in_memory.record(SimDuration::from_ns(20));
        b.from_memory.record(SimDuration::from_ns(20));
        let (to, inm, from) = b.fractions();
        assert!((to + inm + from - 1.0).abs() < 1e-9);
        assert!((to - 0.6).abs() < 1e-9);
        assert!((b.total_mean_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let b = LatencyBreakdown::default();
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn breakdown_merge() {
        let mut a = LatencyBreakdown::default();
        a.to_memory.record(SimDuration::from_ns(10));
        let mut b = LatencyBreakdown::default();
        b.to_memory.record(SimDuration::from_ns(30));
        a.merge(&b);
        assert_eq!(a.to_memory.count(), 2);
        assert!((a.to_memory.mean_ns() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn energy_totals() {
        let mut e = EnergyBreakdown {
            network: EnergyPj::from_pj(10.0),
            read: EnergyPj::from_pj(5.0),
            write: EnergyPj::from_pj(15.0),
        };
        assert_eq!(e.total(), EnergyPj::from_pj(30.0));
        e.merge(&e.clone());
        assert_eq!(e.total(), EnergyPj::from_pj(60.0));
    }

    #[test]
    fn a_result_stays_small_to_move() {
        // A warm replay moves each result through every hand-off (decode,
        // hot tier, campaign record, outcome), so its size is paid per
        // point per hand-off. Large optional parts (the ~2 KB telemetry
        // rollup) are boxed; a new field must not inline one again.
        assert!(
            std::mem::size_of::<RunResult>() <= 512,
            "RunResult is {} bytes",
            std::mem::size_of::<RunResult>()
        );
    }

    #[test]
    fn throughput_and_quantiles() {
        let mut hist = Histogram::new();
        hist.record(SimDuration::from_ns(100));
        hist.record(SimDuration::from_ns(100));
        hist.record(SimDuration::from_us(10));
        let r = RunResult {
            label: "x".into(),
            workload: "y".into(),
            wall: SimTime::from_us(10),
            breakdown: LatencyBreakdown::default(),
            energy: EnergyBreakdown::default(),
            reads: 500,
            writes: 500,
            row_hit_rate: 0.0,
            avg_hops: 0.0,
            read_latency: hist,
            telemetry: None,
        };
        assert!((r.throughput_per_us() - 100.0).abs() < 1e-9);
        assert!(r.read_latency_quantile(0.5) <= SimDuration::from_ns(100));
        assert!(r.read_latency_quantile(1.0) > SimDuration::from_us(5));
        let empty = RunResult {
            read_latency: Histogram::new(),
            ..r
        };
        assert_eq!(empty.read_latency_quantile(0.99), SimDuration::ZERO);
    }
}
