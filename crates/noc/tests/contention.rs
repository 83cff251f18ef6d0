//! Behavioural tests of the interconnect under contention: response
//! priority, credit backpressure cascades, duplexing, and arbitration
//! service shares. These drive the `Network` directly (no memory model),
//! so every effect observed is purely a network property.

use mn_noc::{ArbiterKind, LinkDuplex, Network, NocConfig, Packet, PacketKind};
use mn_sim::{SimDuration, SimTime};
use mn_topo::{CubeTech, NodeId, Placement, Topology, TopologyKind};

fn chain(n: usize) -> Topology {
    Topology::build(
        TopologyKind::Chain,
        &Placement::homogeneous(n, CubeTech::Dram),
    )
    .unwrap()
}

/// Drives the network until quiescent, collecting deliveries with their
/// arrival times.
fn drain(net: &mut Network) -> Vec<(NodeId, u64, SimTime)> {
    let mut out = Vec::new();
    let mut ready = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        net.advance(now, &mut ready);
        for &node in &ready {
            while let Some(d) = net.take_delivery(node, now) {
                out.push((d.node, d.packet.token, d.arrived_at));
            }
        }
        match net.next_event_time() {
            Some(t) => now = t,
            None => break,
        }
    }
    out
}

#[test]
fn responses_preempt_requests_on_shared_links() {
    // A stream of responses from cube 2 and requests from the host fight
    // over the half-duplex host—c1—c2 links. With response priority, the
    // responses' total latency should not degrade relative to running
    // alone, while the requests absorb the queuing.
    let topo = chain(2);
    let c2 = topo.cube_at_position(2).unwrap();

    // Responses alone.
    let mut solo = Network::new(&topo, NocConfig::default());
    for t in 0..8 {
        let req = Packet::request(t, PacketKind::ReadRequest, topo.host(), c2);
        let resp = Packet::response_to(&req, false);
        solo.inject(c2, 0, resp, SimTime::ZERO).unwrap();
    }
    let solo_last = drain(&mut solo).iter().map(|&(_, _, at)| at).max().unwrap();

    // Responses with competing request traffic.
    let mut busy = Network::new(&topo, NocConfig::default());
    for t in 0..8 {
        let req = Packet::request(t, PacketKind::ReadRequest, topo.host(), c2);
        let resp = Packet::response_to(&req, false);
        busy.inject(c2, 0, resp, SimTime::ZERO).unwrap();
        let competing = Packet::request(100 + t, PacketKind::WriteRequest, topo.host(), c2);
        busy.inject(topo.host(), 0, competing, SimTime::ZERO)
            .unwrap();
    }
    let deliveries = drain(&mut busy);
    let busy_resp_last = deliveries
        .iter()
        .filter(|&&(node, _, _)| node == topo.host())
        .map(|&(_, _, at)| at)
        .max()
        .unwrap();

    // Allow one write-request serialization of slack: a response can find
    // the link just taken by a data packet (priority is non-preemptive).
    let slack = SimDuration::from_ps(80 * 33 + 2_000);
    assert!(
        busy_resp_last <= solo_last + slack,
        "responses degraded: solo {solo_last}, contended {busy_resp_last}"
    );
}

#[test]
fn backpressure_cascades_upstream_without_loss() {
    // Tiny buffers on a long chain: flooding the far cube must not lose or
    // duplicate packets, only slow them down.
    let topo = chain(8);
    let cfg = NocConfig {
        buffer_packets: 1,
        ejection_packets: 1,
        ..NocConfig::default()
    };
    let mut net = Network::new(&topo, cfg);
    let far = topo.cube_at_position(8).unwrap();

    let mut pending: Vec<Packet> = (0..32)
        .map(|t| Packet::request(t, PacketKind::ReadRequest, topo.host(), far))
        .collect();
    pending.reverse();

    let mut now = SimTime::ZERO;
    let mut got = Vec::new();
    let mut ready = Vec::new();
    loop {
        while let Some(pkt) = pending.last() {
            if net.can_inject(topo.host(), 0, pkt.kind) {
                let pkt = pending.pop().unwrap();
                net.inject(topo.host(), 0, pkt, now).unwrap();
            } else {
                break;
            }
        }
        net.advance(now, &mut ready);
        for &node in &ready {
            while let Some(d) = net.take_delivery(node, now) {
                got.push(d.packet.token);
            }
        }
        match net.next_event_time() {
            Some(t) => now = t,
            None if pending.is_empty() => break,
            None => panic!("wedged with {} pending", pending.len()),
        }
    }
    got.sort_unstable();
    assert_eq!(got, (0..32).collect::<Vec<_>>());
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn full_duplex_cuts_round_trip_under_bidirectional_load() {
    let run = |duplex: LinkDuplex| {
        let topo = chain(4);
        let cfg = NocConfig {
            duplex,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let far = topo.cube_at_position(4).unwrap();
        // Bidirectional flood: requests out, responses back (inject as
        // buffer space allows).
        let mut down: Vec<Packet> = (0..16)
            .map(|t| Packet::request(t, PacketKind::WriteRequest, topo.host(), far))
            .collect();
        let mut up: Vec<Packet> = (0..16)
            .map(|t| {
                let r = Packet::request(100 + t, PacketKind::ReadRequest, topo.host(), far);
                Packet::response_to(&r, false)
            })
            .collect();
        down.reverse();
        up.reverse();
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let mut ready = Vec::new();
        loop {
            while down
                .last()
                .is_some_and(|p| net.can_inject(topo.host(), 0, p.kind))
            {
                let p = down.pop().unwrap();
                net.inject(topo.host(), 0, p, now).unwrap();
            }
            while up.last().is_some_and(|p| net.can_inject(far, 0, p.kind)) {
                let p = up.pop().unwrap();
                net.inject(far, 0, p, now).unwrap();
            }
            net.advance(now, &mut ready);
            for &node in &ready {
                while let Some(d) = net.take_delivery(node, now) {
                    last = last.max(d.arrived_at);
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None if down.is_empty() && up.is_empty() => break,
                None => panic!("wedged"),
            }
        }
        last
    };
    let half = run(LinkDuplex::Half);
    let full = run(LinkDuplex::Full);
    assert!(
        full < half,
        "independent channels must finish sooner: full {full} vs half {half}"
    );
}

#[test]
fn distance_arbitration_shifts_service_toward_through_traffic() {
    // At cube 1, four local quadrants and the through port contend for the
    // host link. Count how early the far cube's responses land under each
    // arbiter: distance weighting should deliver them sooner.
    let order_of_far = |arbiter: ArbiterKind| {
        let topo = chain(2);
        let cfg = NocConfig {
            arbiter,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let near = topo.cube_at_position(1).unwrap();
        let far = topo.cube_at_position(2).unwrap();
        // Preload: four local responses per quadrant at cube 1, and four
        // far responses queued behind them.
        for q in 0..4 {
            for i in 0..2 {
                let req = Packet::request(
                    (q * 2 + i) as u64,
                    PacketKind::ReadRequest,
                    topo.host(),
                    near,
                );
                let resp = Packet::response_to(&req, false);
                net.inject(near, q, resp, SimTime::ZERO).unwrap();
            }
        }
        for t in 0..4 {
            let req = Packet::request(100 + t, PacketKind::ReadRequest, topo.host(), far);
            let resp = Packet::response_to(&req, false);
            net.inject(far, 0, resp, SimTime::ZERO).unwrap();
        }
        let deliveries = drain(&mut net);
        // Mean arrival index of the far responses (tokens >= 100).
        let mut far_rank_sum = 0usize;
        for (rank, &(_, token, _)) in deliveries.iter().enumerate() {
            if token >= 100 {
                far_rank_sum += rank;
            }
        }
        far_rank_sum
    };
    let rr = order_of_far(ArbiterKind::RoundRobin);
    let dist = order_of_far(ArbiterKind::Distance);
    assert!(
        dist < rr,
        "distance arbitration must deliver traveled packets earlier (rr {rr}, dist {dist})"
    );
}

#[test]
fn link_utilization_reflects_traffic() {
    let topo = chain(2);
    let mut net = Network::new(&topo, NocConfig::default());
    let far = topo.cube_at_position(2).unwrap();
    for t in 0..4 {
        let pkt = Packet::request(t, PacketKind::WriteRequest, topo.host(), far);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
    }
    let _ = drain(&mut net);
    // Both links carried four 80-byte packets in the a->b direction.
    let expect = SimDuration::from_ps(4 * 80 * 33);
    assert_eq!(net.stats().link_busy_time(0, 0), expect);
    assert_eq!(net.stats().link_busy_time(1, 0), expect);
    assert_eq!(net.stats().link_busy_time(0, 1), SimDuration::ZERO);
    assert!(net.stats().arbitration_rounds.value() > 0);
}

#[test]
fn ejection_buffer_backpressure_holds_packets_in_network() {
    let topo = chain(2);
    let cfg = NocConfig {
        ejection_packets: 1,
        ..NocConfig::default()
    };
    let mut net = Network::new(&topo, cfg);
    let c1 = topo.cube_at_position(1).unwrap();
    for t in 0..4 {
        let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), c1);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
    }
    // Run the network without taking deliveries: only one packet fits the
    // ejection buffer; the rest wait in input buffers.
    let mut now = SimTime::ZERO;
    let mut ready = Vec::new();
    while let Some(t) = net.next_event_time() {
        now = t;
        net.advance(now, &mut ready);
    }
    assert_eq!(net.peek_delivery(c1).unwrap().token, 0);
    assert_eq!(net.in_flight(), 4, "nothing delivered yet");
    // Draining the ejection buffer lets the rest flow.
    let mut got = 0;
    loop {
        while net.take_delivery(c1, now).is_some() {
            got += 1;
        }
        match net.next_event_time() {
            Some(t) => {
                now = t;
                net.advance(now, &mut ready);
            }
            None => break,
        }
    }
    while net.take_delivery(c1, now).is_some() {
        got += 1;
    }
    assert_eq!(got, 4);
}
