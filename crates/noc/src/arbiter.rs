//! Router input arbitration (§4.1, §5.1, §5.3).
//!
//! Whenever an output link frees up, the router must pick which input
//! port's head packet to forward. The paper shows the choice matters
//! enormously:
//!
//! - [`RoundRobinArbiter`] is *locally* fair but *globally* unfair: on a
//!   chain, each cube's four local vault ports together get 80% of the
//!   service while the single port carrying every downstream cube's traffic
//!   gets 20% — the "parking lot problem".
//! - [`DistanceArbiter`] weights ports by how far the head packet has
//!   traveled, a hardware-cheap proxy for its age (a small lookup table,
//!   ~8 bytes — §4.1).
//! - The *adaptive* variant ([`ArbiterKind::AdaptiveDistance`]) also adds
//!   an age bonus for responses sourced by slow NVM arrays (they are older
//!   than their hop count suggests — the Fig. 10 NVM-F pathology) and a
//!   penalty for write-class packets so latency-critical reads go first
//!   (§5.3).

use crate::packet::Packet;

/// Selects among the configured arbitration schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterKind {
    /// Locally fair round-robin (the baseline, §3.2).
    RoundRobin,
    /// Distance-as-age weighted round-robin (§4.1).
    Distance,
    /// Distance weighting with technology and request-type awareness
    /// (§5.3, used in the combined Fig. 12 results).
    AdaptiveDistance,
    /// Extension: true age-based arbitration (strictly oldest injection
    /// first). §4.1 describes this as the ideal that distance *proxies* —
    /// impractical in hardware because flit headers have no spare bits for
    /// timestamps, but free in a simulator. Use it to measure how much of
    /// the ideal the distance proxy captures.
    OracleAge,
}

impl ArbiterKind {
    /// Instantiates the arbitration state for one router output.
    pub fn instantiate(self, input_ports: usize) -> ArbiterImpl {
        match self {
            ArbiterKind::RoundRobin => ArbiterImpl::RoundRobin(RoundRobinArbiter::new(input_ports)),
            ArbiterKind::Distance => {
                ArbiterImpl::Distance(DistanceArbiter::new(input_ports, false))
            }
            ArbiterKind::AdaptiveDistance => {
                ArbiterImpl::Distance(DistanceArbiter::new(input_ports, true))
            }
            ArbiterKind::OracleAge => {
                ArbiterImpl::OldestFirst(OldestFirstArbiter::new(input_ports))
            }
        }
    }
}

/// The arbitration state for one router output: a closed enum over the
/// concrete policies, so the per-arbitration `pick`/`weigh` calls are a
/// predictable match dispatch (inlinable, no vtable indirection) and the
/// router can store its arbiters in one flat `Vec<ArbiterImpl>` instead of
/// a `Vec<Box<dyn Arbiter>>` of scattered heap cells.
#[derive(Debug, Clone)]
pub enum ArbiterImpl {
    /// Cyclic round-robin state.
    RoundRobin(RoundRobinArbiter),
    /// Smooth weighted round-robin credit state (both the plain and the
    /// adaptive §5.3 variants — adaptivity is a flag inside).
    Distance(DistanceArbiter),
    /// Oracle oldest-injection-first state.
    OldestFirst(OldestFirstArbiter),
}

impl ArbiterImpl {
    /// Picks the winning candidate; see [`Arbiter::pick`].
    #[inline]
    pub fn pick(&mut self, candidates: &[Candidate]) -> usize {
        match self {
            ArbiterImpl::RoundRobin(a) => Arbiter::pick(a, candidates),
            ArbiterImpl::Distance(a) => Arbiter::pick(a, candidates),
            ArbiterImpl::OldestFirst(a) => Arbiter::pick(a, candidates),
        }
    }

    /// The weight this policy assigns a packet; see [`Arbiter::weigh`].
    #[inline]
    pub(crate) fn weigh(&self, packet: &Packet) -> u64 {
        match self {
            ArbiterImpl::RoundRobin(a) => Arbiter::weigh(a, packet),
            ArbiterImpl::Distance(a) => Arbiter::weigh(a, packet),
            ArbiterImpl::OldestFirst(a) => Arbiter::weigh(a, packet),
        }
    }
}

/// One contender in an arbitration round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The input port the head packet waits on.
    pub input_port: usize,
    /// Scheduling weight of the head packet (from [`Arbiter::weigh`]).
    pub weight: u64,
}

/// Arbitration policy for one router output port.
///
/// Implementations are stateful (round-robin pointers, accumulated
/// credits); the router keeps one instance per output.
pub trait Arbiter: std::fmt::Debug + Send {
    /// Picks the winning candidate. `candidates` is non-empty and sorted by
    /// input port.
    ///
    /// Returns an index into `candidates`.
    fn pick(&mut self, candidates: &[Candidate]) -> usize;

    /// The weight this policy assigns a packet (1 for unweighted policies).
    fn weigh(&self, packet: &Packet) -> u64;
}

/// The baseline: serve input ports in cyclic order regardless of load.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    ports: usize,
    last: usize,
}

impl RoundRobinArbiter {
    /// An arbiter over `input_ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `input_ports` is zero.
    pub fn new(input_ports: usize) -> RoundRobinArbiter {
        assert!(input_ports > 0, "arbitration needs at least one port");
        RoundRobinArbiter {
            ports: input_ports,
            last: input_ports - 1,
        }
    }

    /// Picks, among the contending input `ports`, the first after the last
    /// winner in cyclic order, advancing the pointer to it. This is the
    /// allocation-free core the weighted arbiters use for tie-breaking —
    /// they feed it a filtered iterator instead of collecting the tied
    /// candidates into a scratch `Vec` on every arbitration.
    fn pick_port(&mut self, ports: impl Iterator<Item = usize>) -> usize {
        let winner = ports
            .min_by_key(|&p| (p + self.ports - self.last - 1) % self.ports)
            .expect("no candidates to arbitrate");
        self.last = winner;
        winner
    }
}

impl Arbiter for RoundRobinArbiter {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to arbitrate");
        // The winner is the first candidate after `last` in cyclic order.
        let winner_port = self.pick_port(candidates.iter().map(|c| c.input_port));
        candidates
            .iter()
            .position(|c| c.input_port == winner_port)
            .expect("winner came from candidates")
    }

    fn weigh(&self, _packet: &Packet) -> u64 {
        1
    }
}

/// Adaptive distance arbitration's extra weight for responses whose
/// source cube is NVM, in hop equivalents. The paper tunes this
/// empirically from the average network-hop and array latencies (§5.3);
/// NVM array latency is worth a few hops.
const NVM_AGE_BONUS: u64 = 6;

/// Adaptive distance arbitration's weight divisor for write-class
/// packets, deferring them in favor of reads.
const WRITE_DEPRIORITIZATION: u64 = 2;

/// Weighted round-robin where the weight is the packet's traveled distance
/// (plus adaptive adjustments). Implemented as *smooth* weighted
/// round-robin: every round each contender earns its weight in credits,
/// the richest port wins, and the winner pays back the round's total
/// weight — yielding service exactly proportional to weight, without
/// randomness and without bursts.
#[derive(Debug, Clone)]
pub struct DistanceArbiter {
    credits: Vec<i64>,
    adaptive: bool,
    rr: RoundRobinArbiter,
}

impl DistanceArbiter {
    /// A distance arbiter over `input_ports` ports; `adaptive` enables the
    /// §5.3 technology/type awareness.
    pub fn new(input_ports: usize, adaptive: bool) -> DistanceArbiter {
        DistanceArbiter {
            credits: vec![0; input_ports],
            adaptive,
            rr: RoundRobinArbiter::new(input_ports),
        }
    }
}

impl Arbiter for DistanceArbiter {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to arbitrate");
        let mut total: i64 = 0;
        for c in candidates {
            self.credits[c.input_port] += c.weight as i64;
            total += c.weight as i64;
        }
        // Richest candidate wins; ties fall back to round-robin order for
        // fairness among equals. The tied ports are scanned in place —
        // no per-arbitration scratch list.
        let best_credit = candidates
            .iter()
            .map(|c| self.credits[c.input_port])
            .max()
            .expect("non-empty");
        let winner_port = self.rr.pick_port(
            candidates
                .iter()
                .filter(|c| self.credits[c.input_port] == best_credit)
                .map(|c| c.input_port),
        );
        self.credits[winner_port] -= total;
        candidates
            .iter()
            .position(|c| c.input_port == winner_port)
            .expect("winner came from candidates")
    }

    fn weigh(&self, packet: &Packet) -> u64 {
        let mut w = 1 + u64::from(packet.hops());
        if self.adaptive {
            if packet.src_is_nvm && !packet.kind.is_request() {
                w += NVM_AGE_BONUS;
            }
            if packet.kind.is_write_class() {
                w = (w / WRITE_DEPRIORITIZATION).max(1);
            }
        }
        w
    }
}

/// Strict oldest-injection-first arbitration (the §4.1 ideal). The weight
/// of a packet is the (inverted) injection timestamp, and [`Arbiter::pick`]
/// chooses the maximum-weight candidate outright — no round-robin credit
/// smoothing, because true age is already a total order.
#[derive(Debug, Clone)]
pub struct OldestFirstArbiter {
    rr: RoundRobinArbiter,
}

impl OldestFirstArbiter {
    /// An oracle-age arbiter over `input_ports` ports.
    pub fn new(input_ports: usize) -> OldestFirstArbiter {
        OldestFirstArbiter {
            rr: RoundRobinArbiter::new(input_ports),
        }
    }
}

impl Arbiter for OldestFirstArbiter {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        assert!(!candidates.is_empty(), "no candidates to arbitrate");
        let best = candidates
            .iter()
            .map(|c| c.weight)
            .max()
            .expect("non-empty");
        let winner_port = self.rr.pick_port(
            candidates
                .iter()
                .filter(|c| c.weight == best)
                .map(|c| c.input_port),
        );
        candidates
            .iter()
            .position(|c| c.input_port == winner_port)
            .expect("winner came from candidates")
    }

    fn weigh(&self, packet: &Packet) -> u64 {
        // Older injection => larger weight.
        u64::MAX - packet.injected_at.as_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use mn_topo::NodeId;

    fn cand(port: usize, weight: u64) -> Candidate {
        Candidate {
            input_port: port,
            weight,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut a = RoundRobinArbiter::new(3);
        let all = [cand(0, 1), cand(1, 1), cand(2, 1)];
        let picks: Vec<usize> = (0..6).map(|_| all[a.pick(&all)].input_port).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_absent_ports() {
        let mut a = RoundRobinArbiter::new(4);
        // Only ports 1 and 3 have traffic.
        let some = [cand(1, 1), cand(3, 1)];
        let picks: Vec<usize> = (0..4).map(|_| some[a.pick(&some)].input_port).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn round_robin_is_locally_fair_globally_unfair() {
        // The §3.2 scenario: 4 local ports and 1 through port contending.
        let mut a = RoundRobinArbiter::new(5);
        let all: Vec<Candidate> = (0..5).map(|p| cand(p, 1)).collect();
        let mut through = 0;
        for _ in 0..100 {
            if all[a.pick(&all)].input_port == 4 {
                through += 1;
            }
        }
        assert_eq!(through, 20, "through port gets exactly 20% service");
    }

    #[test]
    fn distance_weighting_shifts_service() {
        // Same scenario but the through port carries 8-hop traffic.
        let mut a = DistanceArbiter::new(5, false);
        let mut all: Vec<Candidate> = (0..4).map(|p| cand(p, 1)).collect();
        all.push(cand(4, 8));
        let mut through = 0;
        for _ in 0..120 {
            if all[a.pick(&all)].input_port == 4 {
                through += 1;
            }
        }
        // With 8/12 of the total weight, the through port should receive
        // roughly two thirds of the service.
        assert!(
            (70..=90).contains(&through),
            "through port got {through}/120"
        );
    }

    #[test]
    fn equal_weights_degenerate_to_round_robin() {
        let mut a = DistanceArbiter::new(3, false);
        let all = [cand(0, 2), cand(1, 2), cand(2, 2)];
        let picks: Vec<usize> = (0..6).map(|_| all[a.pick(&all)].input_port).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weigh_uses_hops() {
        let a = DistanceArbiter::new(2, false);
        let mut p = Packet::request(0, PacketKind::ReadRequest, NodeId(0), NodeId(5));
        assert_eq!(a.weigh(&p), 1);
        p.record_hop();
        p.record_hop();
        assert_eq!(a.weigh(&p), 3);
    }

    #[test]
    fn adaptive_boosts_nvm_responses() {
        let a = DistanceArbiter::new(2, true);
        let req = Packet::request(0, PacketKind::ReadRequest, NodeId(0), NodeId(5));
        let mut resp = Packet::response_to(&req, true);
        resp.record_hop();
        let mut dram_resp = Packet::response_to(&req, false);
        dram_resp.record_hop();
        assert_eq!(a.weigh(&resp), a.weigh(&dram_resp) + 6);
    }

    #[test]
    fn adaptive_defers_writes() {
        let a = DistanceArbiter::new(2, true);
        let mut w = Packet::request(0, PacketKind::WriteRequest, NodeId(0), NodeId(5));
        let mut r = Packet::request(0, PacketKind::ReadRequest, NodeId(0), NodeId(5));
        for _ in 0..5 {
            w.record_hop();
            r.record_hop();
        }
        assert!(a.weigh(&w) < a.weigh(&r));
        assert!(a.weigh(&w) >= 1);
    }

    #[test]
    fn non_adaptive_ignores_tech_and_type() {
        let a = DistanceArbiter::new(2, false);
        let req = Packet::request(0, PacketKind::WriteRequest, NodeId(0), NodeId(5));
        let resp = Packet::response_to(&req, true);
        assert_eq!(a.weigh(&req), a.weigh(&resp));
    }

    #[test]
    fn oldest_first_is_strict() {
        let mut a = OldestFirstArbiter::new(3);
        // Port 2 carries the oldest packet (largest weight): always wins.
        let all = [cand(0, 10), cand(1, 20), cand(2, 30)];
        for _ in 0..5 {
            assert_eq!(all[a.pick(&all)].input_port, 2);
        }
        // Exact ties fall back to round-robin.
        let tied = [cand(0, 7), cand(1, 7)];
        let picks: Vec<usize> = (0..4).map(|_| tied[a.pick(&tied)].input_port).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn oracle_age_weighs_by_injection_time() {
        use mn_sim::SimTime;
        let a = OldestFirstArbiter::new(2);
        let mut old = Packet::request(0, PacketKind::ReadRequest, NodeId(0), NodeId(1));
        let mut young = old.clone();
        old.injected_at = SimTime::from_ns(5);
        young.injected_at = SimTime::from_ns(50);
        assert!(a.weigh(&old) > a.weigh(&young));
    }

    #[test]
    fn kind_instantiates() {
        for kind in [
            ArbiterKind::RoundRobin,
            ArbiterKind::Distance,
            ArbiterKind::AdaptiveDistance,
            ArbiterKind::OracleAge,
        ] {
            let mut arb = kind.instantiate(3);
            let all = [cand(0, 1), cand(2, 5)];
            let i = arb.pick(&all);
            assert!(i < all.len());
        }
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_panics() {
        RoundRobinArbiter::new(2).pick(&[]);
    }
}
