//! Property-style tests over the core data structures and invariants:
//! topology construction, routing, address decoding, the event queue, bank
//! timing, and packet conservation in the network.
//!
//! Each test draws many random cases from a fixed-seed [`SimRng`], so the
//! coverage is property-shaped but fully deterministic and dependency-free
//! (the offline build has no proptest). On failure the panic message
//! carries the case index; rerunning reproduces it exactly.

use mn_core::AddressMap;
use mn_mem::{Bank, MemAccess, MemTechSpec, QuadrantController};
use mn_noc::{Network, NocConfig, Packet, PacketKind};
use mn_sim::{EventQueue, SimRng, SimTime};
use mn_topo::{CubeTech, PathClass, Placement, Topology, TopologyKind};
use mn_workloads::{TraceGenerator, Workload};

fn random_kind(rng: &mut SimRng) -> TopologyKind {
    // Includes the mesh extension: the invariants hold for it too.
    let all = TopologyKind::ALL_EXTENDED;
    all[rng.below(all.len() as u64) as usize]
}

fn random_placement(rng: &mut SimRng) -> Placement {
    let n = rng.range(1, 24) as usize;
    let techs = (0..n)
        .map(|_| {
            if rng.chance(0.5) {
                CubeTech::Dram
            } else {
                CubeTech::Nvm
            }
        })
        .collect();
    Placement::from_techs(techs)
}

#[test]
fn topology_invariants() {
    let mut rng = SimRng::seed_from(0x70_70);
    for case in 0..64 {
        let kind = random_kind(&mut rng);
        let placement = random_placement(&mut rng);
        let topo = Topology::build(kind, &placement).expect("non-empty placements build");
        // Every cube exists, respects the 4-port budget, and is reachable
        // on both path classes.
        let routes = topo.routing();
        assert_eq!(topo.cube_count(), placement.cube_count(), "case {case}");
        for (cube, _) in topo.cubes() {
            assert!(topo.degree(cube) <= 4, "case {case} ({kind:?})");
            let read = routes.read_hops(topo.host(), cube);
            let write = routes.write_hops(topo.host(), cube);
            assert!(read >= 1, "case {case}");
            assert!(
                write >= read,
                "case {case}: write path never shorter than read path"
            );
        }
    }
}

#[test]
fn skiplist_reads_never_worse_than_chain_hops() {
    for n in 1usize..24 {
        let placement = Placement::homogeneous(n, CubeTech::Dram);
        let chain = Topology::build(TopologyKind::Chain, &placement).unwrap();
        let skip = Topology::build(TopologyKind::SkipList, &placement).unwrap();
        let chain_routes = chain.routing();
        let skip_routes = skip.routing();
        for pos in 1..=n as u32 {
            let c = chain.cube_at_position(pos).unwrap();
            let s = skip.cube_at_position(pos).unwrap();
            assert!(
                skip_routes.read_hops(skip.host(), s) <= chain_routes.read_hops(chain.host(), c)
            );
            // Writes ride the chain: identical hop count.
            assert_eq!(
                skip_routes.write_hops(skip.host(), s),
                chain_routes.read_hops(chain.host(), c)
            );
        }
    }
}

#[test]
fn routing_paths_are_loop_free() {
    let mut rng = SimRng::seed_from(0x100F);
    for case in 0..64 {
        let kind = random_kind(&mut rng);
        let n = rng.range(1, 20) as usize;
        let topo = Topology::build(kind, &Placement::homogeneous(n, CubeTech::Dram)).unwrap();
        let routes = topo.routing();
        for (cube, _) in topo.cubes() {
            for class in PathClass::ALL {
                let path = routes.path(&topo, class, topo.host(), cube);
                let mut seen = path.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), path.len(), "case {case}: path revisits a node");
            }
        }
    }
}

#[test]
fn address_map_covers_and_balances() {
    let mut rng = SimRng::seed_from(0xADD7);
    for case in 0..32 {
        let dram = rng.range(1, 12) as usize;
        let nvm = rng.below(4) as usize;
        let mut techs = vec![CubeTech::Dram; dram];
        techs.extend(std::iter::repeat_n(CubeTech::Nvm, nvm));
        let placement = Placement::from_techs(techs);
        let topo = Topology::build(TopologyKind::Chain, &placement).unwrap();
        let map = AddressMap::new(&topo, &placement, 256, 64);
        let units = map.units() as u64;
        // One full cycle of blocks touches each cube exactly its
        // capacity-units many times.
        let mut counts = std::collections::HashMap::new();
        for block in 0..units {
            let d = map.decode(block * 256);
            assert!(d.quadrant < 4, "case {case}");
            assert!(d.bank < 64, "case {case}");
            *counts.entry(d.cube).or_insert(0u32) += 1;
        }
        for (cube, tech) in topo.cubes() {
            assert_eq!(counts[&cube], tech.capacity_units(), "case {case}");
        }
    }
}

#[test]
fn event_queue_matches_sorted_reference() {
    let mut rng = SimRng::seed_from(0xE0E0);
    for case in 0..32 {
        let len = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime::from_ps(t), i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, i)| (t, i)); // stable by insertion order
        for (t, i) in expected {
            let (qt, qi) = queue.pop().expect("same length");
            assert_eq!(qt, SimTime::from_ps(t), "case {case}");
            assert_eq!(qi, i, "case {case}");
        }
        assert!(queue.pop().is_none(), "case {case}");
    }
}

#[test]
fn bank_timing_is_monotonic() {
    let mut rng = SimRng::seed_from(0xBA27);
    for case in 0..32 {
        let spec = MemTechSpec::nvm_pcm();
        let mut bank = Bank::new();
        let mut now = SimTime::ZERO;
        let mut last_completion = SimTime::ZERO;
        for _ in 0..rng.range(1, 50) {
            let row = rng.below(8);
            let is_write = rng.chance(0.5);
            let out = bank.access(now, row, is_write, &spec.timings);
            assert!(out.completed_at >= now, "case {case}");
            assert!(out.bank_free_at >= out.completed_at, "case {case}");
            assert!(out.completed_at >= last_completion, "case {case}");
            last_completion = out.completed_at;
            now = out.bank_free_at;
        }
    }
}

#[test]
fn controller_conserves_requests() {
    let mut rng = SimRng::seed_from(0xC027);
    for case in 0..32 {
        let mut ctrl = QuadrantController::new(MemTechSpec::dram_hbm(), 4, 64);
        let mut now = SimTime::ZERO;
        let mut completed = std::collections::HashSet::new();
        let count = rng.range(1, 40) as usize;
        for token in 0..count {
            let bank = rng.below(4) as u32;
            let row = rng.below(4);
            let access = if rng.chance(0.5) {
                MemAccess::write(token as u64, bank, row)
            } else {
                MemAccess::read(token as u64, bank, row)
            };
            ctrl.enqueue(access, now).expect("capacity 64 suffices");
        }
        loop {
            for c in ctrl.advance(now) {
                assert!(completed.insert(c.token), "case {case}: token twice");
            }
            match ctrl.next_event_time() {
                Some(t) => now = now.max(t),
                None => break,
            }
        }
        assert_eq!(completed.len(), count, "case {case}");
    }
}

#[test]
fn network_conserves_packets() {
    let mut rng = SimRng::seed_from(0x2E7);
    for case in 0..16 {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let mut now = SimTime::ZERO;
        let count = rng.range(1, 60) as usize;
        let mut pending: std::collections::VecDeque<Packet> = (0..count)
            .map(|i| {
                let pos = rng.range(1, 16) as u32;
                let dst = topo.cube_at_position(pos).unwrap();
                let kind = if i % 3 == 0 {
                    PacketKind::WriteRequest
                } else {
                    PacketKind::ReadRequest
                };
                Packet::request(i as u64, kind, topo.host(), dst)
            })
            .collect();
        let mut delivered = std::collections::HashSet::new();
        let mut ready = Vec::new();
        loop {
            while let Some(pkt) = pending.front() {
                if net.can_inject(topo.host(), 0, pkt.kind) {
                    let pkt = pending.pop_front().expect("non-empty");
                    net.inject(topo.host(), 0, pkt, now).expect("space checked");
                } else {
                    break;
                }
            }
            net.advance(now, &mut ready);
            for &node in &ready {
                while let Some(d) = net.take_delivery(node, now) {
                    assert!(
                        delivered.insert(d.packet.token),
                        "case {case}: duplicate delivery"
                    );
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None if pending.is_empty() => break,
                // Buffers full with no events would be a deadlock.
                None => panic!("case {case}: network wedged with pending injections"),
            }
        }
        assert_eq!(delivered.len(), count, "case {case}");
        assert_eq!(net.in_flight(), 0, "case {case}");
    }
}

#[test]
fn traces_stay_in_bounds() {
    let mut rng = SimRng::seed_from(0x7AACE);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let space = 1u64 << rng.range(20, 32);
        let mut gen = TraceGenerator::new(Workload::Hotspot.profile(), space, seed);
        for _ in 0..500 {
            let r = gen.next().expect("infinite");
            assert!(r.addr < space);
            assert_eq!(r.addr % 64, 0);
        }
    }
}
