//! PIM traffic: the paper's related work (§7, Kim et al.) considers MNs
//! where processing-in-memory cubes talk to *each other*, wanting
//! any-to-any reachability. Our network layer supports arbitrary
//! source/destination pairs, so this example drives cube-to-cube traffic
//! directly through `mn-noc` and compares how the paper's topologies serve
//! it — without the host in the loop at all.
//!
//! ```sh
//! cargo run --release -p mn-examples --example pim_network
//! ```

use mn_noc::{Network, NocConfig, Packet, PacketKind};
use mn_sim::{SimRng, SimTime};
use mn_topo::{CubeTech, Placement, Topology, TopologyKind};

fn main() {
    const PACKETS: u64 = 2_000;
    println!("cube-to-cube (PIM-style) uniform-random traffic, {PACKETS} packets\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12}",
        "topology", "avg hops", "finish", "bit-hops"
    );

    for kind in TopologyKind::ALL_EXTENDED {
        let topo = Topology::build(kind, &Placement::homogeneous(16, CubeTech::Dram))
            .expect("16 cubes build everywhere");
        let mut net = Network::new(&topo, NocConfig::default());
        let mut rng = SimRng::seed_from(42);
        let cubes: Vec<_> = topo.cubes().map(|(id, _)| id).collect();

        // Pre-generate uniform random cube pairs.
        let mut flows = Vec::new();
        for token in 0..PACKETS {
            let src = cubes[rng.below(cubes.len() as u64) as usize];
            let mut dst = src;
            while dst == src {
                dst = cubes[rng.below(cubes.len() as u64) as usize];
            }
            // PIM messages look like read responses: data-sized, cube-born.
            let req = Packet::request(token, PacketKind::ReadRequest, dst, src);
            flows.push((src, Packet::response_to(&req, false)));
        }
        flows.reverse();

        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        let mut hop_sum = 0u64;
        let mut last = SimTime::ZERO;
        let mut deadlocked = false;
        let mut ready = Vec::new();
        loop {
            while let Some((src, pkt)) = flows.last() {
                // Spread injections across the cube's four quadrant ports.
                let port = (pkt.token % 4) as usize;
                if net.can_inject(*src, port, pkt.kind) {
                    let (src, pkt) = flows.pop().expect("non-empty");
                    net.inject(src, port, pkt, now).expect("space checked");
                } else {
                    break;
                }
            }
            net.advance(now, &mut ready);
            for &node in &ready {
                while let Some(d) = net.take_delivery(node, now) {
                    delivered += 1;
                    hop_sum += u64::from(d.packet.hops());
                    last = last.max(d.arrived_at);
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None if flows.is_empty() && net.in_flight() == 0 => break,
                None => {
                    // A genuine protocol deadlock: cube-to-cube traffic on
                    // a topology with cycles shares one virtual network,
                    // so buffer dependencies can close a loop. Host-centric
                    // MNs never hit this (requests and responses travel in
                    // separate VCs and terminate at the host); a PIM MN
                    // would need dateline VCs — exactly why the any-to-any
                    // designs in §7 are a different problem.
                    deadlocked = true;
                    break;
                }
            }
        }
        if deadlocked {
            println!(
                "{:<10} {:>10} {:>12} {:>12}   <- DEADLOCK after {} deliveries (cyclic buffer wait; needs dateline VCs)",
                kind.to_string(),
                "-",
                "-",
                "-",
                delivered
            );
        } else {
            assert_eq!(delivered, PACKETS);
            println!(
                "{:<10} {:>10.2} {:>12} {:>12}",
                kind.to_string(),
                hop_sum as f64 / delivered as f64,
                format!("{}", last),
                net.stats().bit_hops,
            );
        }
    }

    println!(
        "\nfor host-centric traffic the paper's per-port MNs avoid all-to-all\n\
         wiring (§2.3); for PIM traffic the tradeoff flips — low-diameter\n\
         topologies win, and cyclic ones (ring, mesh) need extra virtual\n\
         channels to be deadlock-free, matching the §7 discussion that\n\
         PIM networks are a different design problem."
    );
}
