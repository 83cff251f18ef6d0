//! Every route pinned: one FNV-1a digest over the `(kind, class, src,
//! dst, port, dist)` entry of every routing table the figures and the
//! fault path can build at 16 cubes. A change to the route builder that
//! moves a single output port or hop count anywhere changes the digest.

use mn_topo::{
    CubeTech, LinkId, NvmPlacement, PathClass, Placement, RoutingTable, Topology, TopologyKind,
    NO_PORT,
};

/// The digest of [`route_digest`], recorded when the routes were last
/// known good. Update it only for a change that means to move routes.
const PINNED_ROUTE_DIGEST: u64 = 0xe6de_3a05_bab2_7add;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Feeds every `(class, src, dst)` entry of `routes` into `hash`: the
/// output port, and the hop count or `u32::MAX` when unreachable.
fn feed_table(hash: &mut Fnv, kind: TopologyKind, topo: &Topology, routes: &RoutingTable) {
    for (c, class) in PathClass::ALL.into_iter().enumerate() {
        for src in topo.node_ids() {
            for dst in topo.node_ids() {
                let port = routes.next_port(class, src, dst);
                let dist = if routes.reachable(class, src, dst) {
                    routes.hops(class, src, dst)
                } else {
                    u32::MAX
                };
                hash.feed(kind.to_string().as_bytes());
                hash.feed(&[c as u8]);
                hash.feed(&src.0.to_le_bytes());
                hash.feed(&dst.0.to_le_bytes());
                hash.feed(&port.to_le_bytes());
                hash.feed(&dist.to_le_bytes());
            }
        }
    }
}

/// The placements covered: 16 DRAM cubes and the paper's four
/// DRAM:NVM capacity mixes, NVM-L and NVM-F.
fn placements() -> Vec<Placement> {
    let mut out = vec![Placement::homogeneous(16, CubeTech::Dram)];
    for (dram, at) in [
        (1.0, NvmPlacement::Last),
        (0.5, NvmPlacement::Last),
        (0.5, NvmPlacement::First),
        (0.0, NvmPlacement::Last),
    ] {
        out.push(Placement::mixed_by_capacity(dram, at).unwrap());
    }
    out
}

/// Returns the digest and the number of tables it covers.
fn route_digest() -> (u64, usize) {
    let mut hash = Fnv::new();
    let mut tables = 0;
    for kind in TopologyKind::ALL_EXTENDED {
        for placement in placements() {
            let topo = Topology::build(kind, &placement).unwrap();
            feed_table(&mut hash, kind, &topo, &RoutingTable::compute(&topo));
            tables += 1;
        }
        // Every single dead link at 16 cubes, the fault path's tables.
        let topo = Topology::build(kind, &Placement::homogeneous(16, CubeTech::Dram)).unwrap();
        for link in topo.link_ids() {
            hash.feed(&link.0.to_le_bytes());
            feed_table(
                &mut hash,
                kind,
                &topo,
                &RoutingTable::compute_avoiding(&topo, &[link]),
            );
            tables += 1;
        }
    }
    (hash.0, tables)
}

#[test]
fn every_route_matches_the_pinned_digest() {
    let (digest, tables) = route_digest();
    assert!(tables > 100, "only {tables} tables covered");
    assert_eq!(
        digest, PINNED_ROUTE_DIGEST,
        "routes moved: digest {digest:#018x} over {tables} tables"
    );
}

#[test]
fn unreachable_pairs_have_no_port() {
    // A dead chain link cuts off every cube behind it: no output port
    // leads there, and the pair reports unreachable on both planes.
    let topo = Topology::build(
        TopologyKind::Chain,
        &Placement::homogeneous(8, CubeTech::Dram),
    )
    .unwrap();
    let c4 = topo.cube_at_position(4).unwrap();
    let c5 = topo.cube_at_position(5).unwrap();
    let cut: LinkId = topo
        .neighbors(c4)
        .iter()
        .find(|&&(n, _)| n == c5)
        .map(|&(_, l)| l)
        .unwrap();
    let routes = RoutingTable::compute_avoiding(&topo, &[cut]);
    let far = topo.cube_at_position(8).unwrap();
    for class in PathClass::ALL {
        assert_eq!(routes.next_port(class, topo.host(), far), NO_PORT);
        assert!(!routes.reachable(class, topo.host(), far));
        assert_ne!(routes.next_port(class, topo.host(), c4), NO_PORT);
    }
    // A node is its own destination: no port, zero hops.
    assert_eq!(routes.next_port(PathClass::Read, c4, c4), NO_PORT);
    assert_eq!(routes.hops(PathClass::Read, c4, c4), 0);
}
