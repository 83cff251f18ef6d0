//! Latency decomposition and the mergeable telemetry rollup.

use std::fmt::Write as _;

use mn_sim::{Accumulator, SimDuration};

use crate::fairness::FairnessTracker;
use crate::host::HostSummary;
use crate::metrics::QueueDepthStats;

/// The paper's three-way latency split (request NoC / memory array /
/// response NoC, Figures 4–5) refined with queuing-vs-serialization
/// sub-splits and per-hop-count end-to-end classes.
///
/// "Wire" time is the zero-contention cost of a packet's routed path
/// (serialization plus fixed per-hop latency, precomputed per
/// destination); "queue" is whatever the measured phase took beyond
/// that — buffering, arbitration losses, link contention, and retries.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// Request-network queuing time.
    pub req_queue: Accumulator,
    /// Request-network wire time (serialization + propagation).
    pub req_wire: Accumulator,
    /// Memory-array service time (bank access incl. quadrant penalty).
    pub array: Accumulator,
    /// Response-network queuing time.
    pub resp_queue: Accumulator,
    /// Response-network wire time.
    pub resp_wire: Accumulator,
    end_to_end: Accumulator,
    by_hops: Vec<Accumulator>,
}

impl Decomposition {
    /// Creates a decomposition with the per-hop-count table pre-sized
    /// for paths up to `max_hops` hops (it grows on demand past that).
    pub fn with_max_hops(max_hops: usize) -> Self {
        Decomposition {
            by_hops: vec![Accumulator::new(); max_hops + 1],
            ..Decomposition::default()
        }
    }

    /// Records one request-network transit split into queue and wire
    /// components.
    #[inline]
    pub fn record_request(&mut self, queue: SimDuration, wire: SimDuration) {
        self.req_queue.record(queue);
        self.req_wire.record(wire);
    }

    /// Records one memory-array service time.
    #[inline]
    pub fn record_array(&mut self, d: SimDuration) {
        self.array.record(d);
    }

    /// Records one response-network transit split into queue and wire
    /// components.
    #[inline]
    pub fn record_response(&mut self, queue: SimDuration, wire: SimDuration) {
        self.resp_queue.record(queue);
        self.resp_wire.record(wire);
    }

    /// Records one completed request's end-to-end latency under its
    /// response-path hop count.
    #[inline]
    pub fn record_total(&mut self, hops: usize, latency: SimDuration) {
        self.end_to_end.record(latency);
        if hops >= self.by_hops.len() {
            self.by_hops.resize(hops + 1, Accumulator::new());
        }
        self.by_hops[hops].record(latency);
    }

    /// Merges another decomposition into this one.
    pub fn merge(&mut self, other: &Decomposition) {
        self.req_queue.merge(&other.req_queue);
        self.req_wire.merge(&other.req_wire);
        self.array.merge(&other.array);
        self.resp_queue.merge(&other.resp_queue);
        self.resp_wire.merge(&other.resp_wire);
        self.end_to_end.merge(&other.end_to_end);
        if other.by_hops.len() > self.by_hops.len() {
            self.by_hops.resize(other.by_hops.len(), Accumulator::new());
        }
        for (mine, theirs) in self.by_hops.iter_mut().zip(&other.by_hops) {
            mine.merge(theirs);
        }
    }

    /// Mean request-network latency (queue + wire) in nanoseconds.
    pub fn request_ns(&self) -> f64 {
        self.req_queue.mean_ns() + self.req_wire.mean_ns()
    }

    /// Mean memory-array latency in nanoseconds.
    pub fn array_ns(&self) -> f64 {
        self.array.mean_ns()
    }

    /// Mean response-network latency (queue + wire) in nanoseconds.
    pub fn response_ns(&self) -> f64 {
        self.resp_queue.mean_ns() + self.resp_wire.mean_ns()
    }

    /// The measured end-to-end latency accumulator.
    pub fn end_to_end(&self) -> &Accumulator {
        &self.end_to_end
    }

    /// Iterates `(hop_count, latency_accumulator)` for hop counts with
    /// at least one sample.
    pub(crate) fn by_hops(&self) -> impl Iterator<Item = (usize, &Accumulator)> {
        self.by_hops
            .iter()
            .enumerate()
            .filter(|(_, acc)| !acc.is_empty())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.end_to_end.is_empty() && self.array.is_empty() && self.req_queue.is_empty()
    }
}

/// Mergeable cross-port telemetry rollup; rides on a run's result when
/// telemetry is enabled.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Latency decomposition (paper Fig. 4/5 components + sub-splits).
    pub decomp: Decomposition,
    /// Per-source-cube service shares (parking-lot fairness).
    pub fairness: FairnessTracker,
    /// Buffer-occupancy distribution across all router input buffers.
    pub queue_depth: QueueDepthStats,
    /// Highest per-bucket utilization observed on any link (0..=1).
    pub peak_link_utilization: f64,
    /// Closed-loop host rollup — `Some` only when a `mn-host` window
    /// policy gated injection during the run.
    pub host: Option<HostSummary>,
}

impl TelemetrySummary {
    /// Merges another port's summary into this one.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.decomp.merge(&other.decomp);
        self.fairness.merge(&other.fairness);
        self.queue_depth.merge(&other.queue_depth);
        self.peak_link_utilization = self.peak_link_utilization.max(other.peak_link_utilization);
        if let Some(theirs) = &other.host {
            match &mut self.host {
                Some(mine) => mine.merge(theirs),
                None => self.host = Some(theirs.clone()),
            }
        }
    }

    /// A fig04-style plain-text decomposition + fairness report.
    pub fn report(&self) -> String {
        let d = &self.decomp;
        let total = d.request_ns() + d.array_ns() + d.response_ns();
        let measured = d.end_to_end().mean_ns();
        let mut out = String::new();
        let _ = writeln!(out, "latency decomposition (mean ns per request):");
        let _ = writeln!(
            out,
            "  request network  {:>8.1}   (queue {:>8.1} | wire {:>6.1})",
            d.request_ns(),
            d.req_queue.mean_ns(),
            d.req_wire.mean_ns(),
        );
        let _ = writeln!(out, "  memory array     {:>8.1}", d.array_ns());
        let _ = writeln!(
            out,
            "  response network {:>8.1}   (queue {:>8.1} | wire {:>6.1})",
            d.response_ns(),
            d.resp_queue.mean_ns(),
            d.resp_wire.mean_ns(),
        );
        let _ = writeln!(
            out,
            "  components sum   {:>8.1}   (measured end-to-end {:.1})",
            total, measured
        );
        if d.by_hops().count() > 0 {
            let _ = writeln!(out, "by response hop count:");
            for (hops, acc) in d.by_hops() {
                let _ = writeln!(
                    out,
                    "  {:>2} hops  n={:<8} mean {:>8.1} ns",
                    hops,
                    acc.count(),
                    acc.mean_ns()
                );
            }
        }
        let _ = writeln!(
            out,
            "fairness         jain {:.4} over {} cubes",
            self.fairness.jain(),
            self.fairness.active_sources()
        );
        let _ = writeln!(
            out,
            "queue depth      peak {} | p99 {} ({} samples)",
            self.queue_depth.peak(),
            self.queue_depth.p99(),
            self.queue_depth.total()
        );
        let _ = writeln!(
            out,
            "link utilization peak {:.1}%",
            self.peak_link_utilization * 100.0
        );
        if let Some(host) = &self.host {
            let _ = writeln!(
                out,
                "closed loop      window steady {:.1} (min {} | peak {}) | rtt mean {:.1} ns | marked {:.1}% of {} responses",
                host.steady_window(),
                host.min_window,
                host.peak_window,
                host.rtt.mean_ns(),
                host.marked_fraction() * 100.0,
                host.responses
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_fold_and_sum() {
        let mut d = Decomposition::with_max_hops(4);
        d.record_request(SimDuration::from_ns(8), SimDuration::from_ns(4));
        d.record_array(SimDuration::from_ns(9));
        d.record_response(SimDuration::from_ns(18), SimDuration::from_ns(4));
        d.record_total(3, SimDuration::from_ns(43));
        assert!((d.request_ns() - 12.0).abs() < 1e-9);
        assert!((d.array_ns() - 9.0).abs() < 1e-9);
        assert!((d.response_ns() - 22.0).abs() < 1e-9);
        let sum = d.request_ns() + d.array_ns() + d.response_ns();
        assert!((sum - d.end_to_end().mean_ns()).abs() < 1e-9);
        let by: Vec<_> = d.by_hops().collect();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].0, 3);
    }

    #[test]
    fn record_total_grows_past_presize() {
        let mut d = Decomposition::with_max_hops(1);
        d.record_total(7, SimDuration::from_ns(1));
        assert_eq!(d.by_hops().next().unwrap().0, 7);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Decomposition::with_max_hops(2);
        a.record_request(SimDuration::from_ns(10), SimDuration::from_ns(2));
        a.record_total(1, SimDuration::from_ns(12));
        let mut b = Decomposition::with_max_hops(5);
        b.record_request(SimDuration::from_ns(20), SimDuration::from_ns(4));
        b.record_total(5, SimDuration::from_ns(24));
        a.merge(&b);
        assert_eq!(a.req_queue.count(), 2);
        assert!((a.req_queue.mean_ns() - 15.0).abs() < 1e-9);
        assert_eq!(a.by_hops().count(), 2);
    }

    #[test]
    fn summary_report_mentions_all_sections() {
        let mut s = TelemetrySummary::default();
        s.decomp
            .record_request(SimDuration::from_ns(5), SimDuration::from_ns(5));
        s.decomp.record_array(SimDuration::from_ns(9));
        s.decomp
            .record_response(SimDuration::from_ns(5), SimDuration::from_ns(5));
        s.decomp.record_total(2, SimDuration::from_ns(24));
        s.fairness = FairnessTracker::new(3);
        s.fairness.record(1, SimDuration::from_ns(24));
        s.queue_depth.record(4);
        s.peak_link_utilization = 0.5;
        let report = s.report();
        assert!(report.contains("request network"));
        assert!(report.contains("memory array"));
        assert!(report.contains("response network"));
        assert!(report.contains("jain 1.0000 over 1 cubes"));
        assert!(report.contains("peak 4"));
        assert!(report.contains("50.0%"));
        assert!(report.contains("2 hops"));
    }

    #[test]
    fn summary_merges_and_reports_host_rollup() {
        let mut a = TelemetrySummary::default();
        assert!(a.host.is_none());
        assert!(!a.report().contains("closed loop"));
        let mut h = HostSummary::new();
        h.record(0, 8, SimDuration::from_ns(150), true);
        let b = TelemetrySummary {
            host: Some(h),
            ..TelemetrySummary::default()
        };
        a.merge(&b); // None + Some adopts
        a.merge(&b); // Some + Some folds
        let host = a.host.as_ref().unwrap();
        assert_eq!(host.responses, 2);
        assert!(a.report().contains("closed loop"));
        assert!(a.report().contains("marked 100.0% of 2 responses"));
    }

    #[test]
    fn summary_merge_takes_max_utilization() {
        let mut a = TelemetrySummary {
            peak_link_utilization: 0.3,
            ..TelemetrySummary::default()
        };
        let b = TelemetrySummary {
            peak_link_utilization: 0.9,
            ..TelemetrySummary::default()
        };
        a.merge(&b);
        assert!((a.peak_link_utilization - 0.9).abs() < 1e-12);
    }
}
