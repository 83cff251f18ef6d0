//! Structural integration tests across topology builders, routing, and
//! metrics — including the properties the paper's figures rely on.

use mn_topo::{
    render_ascii, CubeTech, NodeKind, NvmPlacement, PathClass, Placement, Topology, TopologyKind,
    TopologyMetrics,
};

#[test]
fn metacube_interfaces_form_a_star_for_four_packages() {
    let topo = Topology::build(
        TopologyKind::MetaCube,
        &Placement::homogeneous(16, CubeTech::Dram),
    )
    .unwrap();
    let interfaces: Vec<_> = topo
        .node_ids()
        .filter(|&n| topo.node(n).kind == NodeKind::Interface)
        .collect();
    assert_eq!(interfaces.len(), 4);
    // The first interface chip fans out to the other three (high radix).
    let hub = interfaces[0];
    assert_eq!(topo.degree(hub), 1 + 3 + 4); // host + 3 peers + 4 cubes
    for &leaf in &interfaces[1..] {
        assert_eq!(topo.degree(leaf), 1 + 4);
    }
}

#[test]
fn metacube_scales_past_one_tree_level() {
    // 32 cubes (the four-port study) need 8 packages: a two-level tree of
    // interface chips.
    let topo = Topology::build(
        TopologyKind::MetaCube,
        &Placement::homogeneous(32, CubeTech::Dram),
    )
    .unwrap();
    let routes = topo.routing();
    let max = (1..=32)
        .map(|p| routes.read_hops(topo.host(), topo.cube_at_position(p).unwrap()))
        .max()
        .unwrap();
    assert!(max <= 4, "8 packages stay within two IF levels, got {max}");
}

#[test]
fn all_topologies_have_single_host_link_except_none() {
    // The §4.2 bandwidth argument: MN throughput is bounded by the single
    // link back to the host port — true for every topology here.
    for kind in TopologyKind::ALL {
        let topo = Topology::build(kind, &Placement::homogeneous(16, CubeTech::Dram)).unwrap();
        assert_eq!(topo.degree(topo.host()), 1, "{kind}");
    }
}

#[test]
fn skip_list_scales_logarithmically() {
    for n in [8usize, 16, 24] {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(n, CubeTech::Dram),
        )
        .unwrap();
        let m = TopologyMetrics::compute(&topo);
        let bound = 2.0 * (n as f64).log2().ceil() + 2.0;
        assert!(
            f64::from(m.max_read_hops) <= bound,
            "{n} cubes: {} hops exceeds ~2log2(n)={bound}",
            m.max_read_hops
        );
        assert_eq!(m.max_write_hops as usize, n, "writes ride the chain");
    }
}

#[test]
fn nvm_mixes_shrink_every_topology() {
    for kind in TopologyKind::ALL {
        let all_dram = Topology::build(
            kind,
            &Placement::mixed_by_capacity(1.0, NvmPlacement::Last).unwrap(),
        )
        .unwrap();
        let half = Topology::build(
            kind,
            &Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap(),
        )
        .unwrap();
        let m_all = TopologyMetrics::compute(&all_dram);
        let m_half = TopologyMetrics::compute(&half);
        assert!(
            m_half.max_read_hops <= m_all.max_read_hops,
            "{kind}: smaller networks cannot be deeper"
        );
        assert!(half.cube_count() < all_dram.cube_count());
    }
}

#[test]
fn write_paths_avoid_skip_links_entirely() {
    let topo = Topology::build(
        TopologyKind::SkipList,
        &Placement::homogeneous(16, CubeTech::Dram),
    )
    .unwrap();
    let routes = topo.routing();
    for (cube, _) in topo.cubes() {
        for link in routes.path_links(&topo, PathClass::Write, topo.host(), cube) {
            assert!(!topo.link(link).skip);
        }
    }
}

#[test]
fn renders_every_topology() {
    for kind in TopologyKind::ALL {
        let topo = Topology::build(kind, &Placement::homogeneous(10, CubeTech::Dram)).unwrap();
        let ascii = render_ascii(&topo, &topo.routing());
        assert!(ascii.contains("HOST"), "{kind}");
        assert!(ascii.lines().count() >= topo.node_count(), "{kind}");
    }
}

#[test]
fn capacity_weighted_hops_follow_placement_on_every_topology() {
    for kind in [
        TopologyKind::Chain,
        TopologyKind::Ring,
        TopologyKind::SkipList,
    ] {
        let last = Topology::build(
            kind,
            &Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap(),
        )
        .unwrap();
        let first = Topology::build(
            kind,
            &Placement::mixed_by_capacity(0.5, NvmPlacement::First).unwrap(),
        )
        .unwrap();
        let m_last = TopologyMetrics::compute(&last);
        let m_first = TopologyMetrics::compute(&first);
        assert!(
            m_last.capacity_weighted_read_hops >= m_first.capacity_weighted_read_hops,
            "{kind}: NVM-L pushes capacity (and thus traffic) farther out"
        );
    }
}
